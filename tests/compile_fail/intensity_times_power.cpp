// Compile-fail case: a carbon intensity applied to power.
//
// gCO2/kWh times kW is not a mass; emissions need energy.  The only
// product defined for a kW figure is with a Duration.  With HPCEM_MISTAKE
// defined this file must not compile; without it, intensity applied to
// the kWh of that power over a duration must compile.
#include "util/units.hpp"

int main() {
  const hpcem::PowerKw draw{3220.0};
  const auto intensity = hpcem::CarbonIntensity::g_per_kwh(200.0);
#ifdef HPCEM_MISTAKE
  const hpcem::CarbonMass emitted = draw * intensity;
#else
  const hpcem::CarbonMass emitted =
      (draw * hpcem::Duration::hours(1.0)) * intensity;
#endif
  return emitted.g() > 0.0 ? 0 : 1;
}
