// Extension harness: energy use by research community (HPC-JEEP-style,
// paper reference [3]).  Simulates three production weeks and attributes
// node-hours, energy and scope-2 emissions to research areas.
#include <iostream>

#include "core/accounting.hpp"
#include "core/scenario_library.hpp"

int main() {
  using namespace hpcem;
  ScenarioSpec spec = load_named_scenario("archer2-baseline");
  spec.seed = 404;
  spec.window_start = sim_time_from_date({2022, 2, 1});
  spec.window_end = spec.window_start + Duration::days(21.0);
  spec.warmup = Duration::days(10.0);
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();

  const UsageBreakdown usage =
      account_usage(sim->completed(), assembly.facility().catalog(),
                    CarbonIntensity::g_per_kwh(200.0));
  std::cout << render_usage_breakdown(usage) << '\n';
  std::cout << "Three simulated weeks at 200 gCO2/kWh.  The area mix "
               "tracks the catalogue's configured node-hour weights "
               "(materials ~49%, climate/ocean ~18%, engineering ~15%); "
               "per-node draw varies by community because the codes do.\n";
  return 0;
}
