// Compile-fail case: a write through the handle of a const Guarded<T>.
//
// The const overload of lock() yields const access, so a const member
// function can read guarded state but not change it.  With HPCEM_MISTAKE
// defined this file must not compile; without it, the read must compile.
#include "util/guarded.hpp"

namespace {

class Gauge {
 public:
  [[nodiscard]] int read() const {
#ifdef HPCEM_MISTAKE
    *value_.lock() = 0;
#endif
    return *value_.lock();
  }

 private:
  hpcem::Guarded<int> value_;
};

}  // namespace

int main() {
  const Gauge gauge;
  return gauge.read();
}
