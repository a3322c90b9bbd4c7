// Compile-fail case: a kW figure used as a kWh figure.
//
// PowerKw and EnergyKwh are distinct types with explicit constructors, so
// energy can only come from power through a Duration.  With HPCEM_MISTAKE
// defined this file must not compile; without it, the kW x duration
// product must compile.
#include "util/units.hpp"

int main() {
  const hpcem::PowerKw draw{3220.0};
#ifdef HPCEM_MISTAKE
  const hpcem::EnergyKwh used = draw;
#else
  const hpcem::EnergyKwh used = draw * hpcem::Duration::hours(2.0);
#endif
  return used.kwh() > 0.0 ? 0 : 1;
}
