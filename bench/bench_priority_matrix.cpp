// Extension harness: the §5 priority decision matrix.
//
// Evaluates the operating-lever set under three grid conditions (clean,
// balanced, dirty) and shows the per-objective recommendation flipping as
// the paper's §2 logic says it must: clean grids favour output per
// node-hour, dirty grids favour energy efficiency.
#include <iostream>

#include "core/priorities.hpp"

int main() {
  using namespace hpcem;
  const Facility facility = Facility::archer2();
  const PriorityAdvisor advisor(facility, 0.91);

  struct GridCase {
    const char* label;
    CarbonIntensity g_per_kwh;
    Price gbp_per_kwh;
  };
  using namespace literals;
  for (const GridCase& g :
       {GridCase{"clean grid (hydro/nuclear-like)", 15.0_gCO2kWh,
                 Price::gbp_per_kwh(0.10)},
        GridCase{"balanced grid", 55.0_gCO2kWh, Price::gbp_per_kwh(0.20)},
        GridCase{"UK-2022-like winter grid", 250.0_gCO2kWh,
                 Price::gbp_per_kwh(0.40)}}) {
    std::cout << "=== " << g.label << " ===\n"
              << advisor.render(g.g_per_kwh, g.gbp_per_kwh) << '\n';
  }
  std::cout << "Paper section 2 logic check: the emissions recommendation "
               "must move from performance-oriented on the clean grid to "
               "energy-oriented on the dirty grid.\n";
  return 0;
}
