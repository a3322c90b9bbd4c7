// Reproduction harness: §5 conclusions — the three campaign means and the
// headline savings (210 kW BIOS, 480 kW frequency, 690 kW / 21% total).
//
// Runs all three figure campaigns; the slowest harness in the suite.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_library.hpp"

int main() {
  using namespace hpcem;
  const auto run = [](const char* name) {
    return FacilityAssembly(load_named_scenario(name)).run();
  };
  const TimelineResult f1 = run("figure1");
  const TimelineResult f2 = run("figure2");
  const TimelineResult f3 = run("figure3");
  std::cout << render_conclusions(conclusions(f1, f2, f3)) << '\n';
  return 0;
}
