// Ablation: demand response — "good grid citizen" behaviour (§3).
//
// A winter grid-stress window requests a cabinet-power cap; the facility
// chooses the least-damaging policy that satisfies it from the operational
// levers the paper describes.  The harness sweeps cap levels and prints
// which policy the chooser picks and how much headroom each lever frees.
#include <iostream>
#include <vector>

#include "core/facility.hpp"
#include "grid/demand_response.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;
  const Facility facility = Facility::archer2();
  const double util = 0.90;

  auto option = [&](const char* label, OperatingPolicy p) {
    PolicyOption o;
    o.policy = p;
    o.predicted_cabinet = facility.predicted_cabinet_power(p, util);
    o.mean_slowdown = facility.mean_slowdown(p);
    std::cout << "  lever: " << label << " -> "
              << TextTable::grouped(o.predicted_cabinet.kw())
              << " kW, mix slowdown "
              << TextTable::pct(o.mean_slowdown, 1) << '\n';
    return o;
  };

  std::cout << "Available operating levers at "
            << TextTable::pct(util, 0) << " utilisation:\n";
  OperatingPolicy low_no_revert = OperatingPolicy::low_frequency_default();
  low_no_revert.auto_revert_enabled = false;
  OperatingPolicy floor = low_no_revert;
  floor.default_pstate = pstates::kLow;
  const std::vector<PolicyOption> options = {
      option("baseline (power det., turbo)", OperatingPolicy::baseline()),
      option("performance determinism",
             OperatingPolicy::performance_determinism()),
      option("2.0 GHz default, >10% revert",
             OperatingPolicy::low_frequency_default()),
      option("2.0 GHz default, no revert", low_no_revert),
      option("1.5 GHz default, no revert", floor),
  };

  TextTable t({"Requested cap (kW)", "Chosen policy draw (kW)",
               "Cap satisfied", "Mix slowdown"},
              {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (const PowerKw cap_kw :
       {PowerKw{3300.0}, PowerKw{3100.0}, PowerKw{2700.0}, PowerKw{2500.0},
        PowerKw{2200.0}, PowerKw{1900.0}}) {
    const Power cap = cap_kw.to_power();
    const PolicyOption& chosen = choose_policy_for_cap(options, cap);
    t.add_row({TextTable::grouped(cap_kw.kw()),
               TextTable::grouped(chosen.predicted_cabinet.kw()),
               chosen.predicted_cabinet <= cap ? "yes" : "best effort",
               TextTable::pct(chosen.mean_slowdown, 1)});
  }
  std::cout << "\nAblation: demand-response cap sweep\n" << t.str();
  return 0;
}
