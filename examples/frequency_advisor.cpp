// Frequency advisor: the per-application benchmarking workflow the paper
// recommends to users ("benchmark the effect of CPU frequency on their use
// of ARCHER2 and choose an appropriate setting", §4.2).
//
//   $ ./frequency_advisor                  # advise on every benchmark app
//   $ ./frequency_advisor "VASP CdTe" 0.05 # one app, 5% slowdown budget
//
// For each application the advisor sweeps the machine's P-states, prints
// performance/energy/power, and recommends the most energy-efficient
// setting within the slowdown budget (default: the service's 10% rule).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/efficiency.hpp"
#include "core/facility.hpp"
#include "core/report.hpp"
#include "util/text_table.hpp"

int main(int argc, char** argv) {
  using namespace hpcem;
  const Facility facility = Facility::archer2();
  const EfficiencyAnalyzer analyzer(facility.catalog());

  double slowdown_budget = 0.10;
  std::vector<std::string> apps;
  if (argc >= 2) {
    apps.emplace_back(argv[1]);
    if (argc >= 3) slowdown_budget = std::atof(argv[2]);
  } else {
    for (const auto* app : facility.catalog().benchmarks_for_table(4)) {
      apps.push_back(app->name());
    }
  }

  std::cout << "Slowdown budget: " << TextTable::pct(slowdown_budget, 0)
            << " (the service default rule reverts anything worse)\n\n";

  TextTable summary({"Application", "Recommended", "Energy saving",
                     "Perf. cost", "Node power"},
                    {Align::kLeft, Align::kLeft, Align::kRight,
                     Align::kRight, Align::kRight});
  for (const auto& name : apps) {
    if (!facility.catalog().contains(name)) {
      std::cerr << "unknown application: " << name << '\n';
      return 1;
    }
    const auto sweep = analyzer.frequency_sweep(name);
    std::cout << render_frequency_sweep(name, sweep) << '\n';

    const PState best = analyzer.recommend_pstate(name, slowdown_budget);
    for (const auto& p : sweep) {
      if (p.pstate == best) {
        summary.add_row({name, to_string(best),
                         TextTable::pct(1.0 - p.energy_ratio, 1),
                         TextTable::pct(1.0 / p.perf_ratio - 1.0, 1),
                         TextTable::num(p.node_power_w.w(), 0) + " W"});
        break;
      }
    }
  }
  std::cout << "Recommendations within the slowdown budget\n"
            << summary.str();
  return 0;
}
