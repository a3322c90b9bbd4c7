// Compile-fail case: a PowerKw passed where a Power (watts) is expected.
//
// PowerKw stores kilowatts and Power stores watts; the only way between
// them is the explicit to_power().  With HPCEM_MISTAKE defined this file
// must not compile; without it, the explicit conversion must compile.
#include "util/units.hpp"

namespace {

double watts(hpcem::Power p) { return p.w(); }

}  // namespace

int main() {
  const hpcem::PowerKw draw{3220.0};
#ifdef HPCEM_MISTAKE
  return watts(draw) > 0.0 ? 0 : 1;
#else
  return watts(draw.to_power()) > 0.0 ? 0 : 1;
#endif
}
