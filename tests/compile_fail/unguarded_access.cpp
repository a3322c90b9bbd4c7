// Compile-fail case: a guarded field reached without lock().
//
// Guarded<T> has no accessor other than lock(), so touching the state
// directly is a compile error.  With HPCEM_MISTAKE defined this file must
// not compile; without it, the locked form must compile.
#include <cstddef>

#include "util/guarded.hpp"

namespace {

class Counter {
 public:
  void touch() {
#ifdef HPCEM_MISTAKE
    state_.n = state_.n + 1;
#else
    const auto state = state_.lock();
    state->n = state->n + 1;
#endif
  }

 private:
  struct State {
    std::size_t n = 0;
  };
  hpcem::Guarded<State> state_;
};

}  // namespace

int main() {
  Counter counter;
  counter.touch();
  return 0;
}
