// Ablation: compiler/toolchain choice x CPU frequency (the paper's named
// future work).  Energy-to-solution matrix for a representative benchmark:
// rows are builds, columns are P-states, all relative to the reference
// build at 2.25 GHz + turbo.
#include <iostream>

#include "core/facility.hpp"
#include "util/text_table.hpp"
#include "workload/toolchain.hpp"

int main() {
  using namespace hpcem;
  const Facility facility = Facility::archer2();

  for (const char* app_name : {"CASTEP Al Slab", "LAMMPS Ethanol"}) {
    const ApplicationModel& base = facility.catalog().at(app_name);
    const auto matrix = toolchain_frequency_study(base);

    TextTable t({"Build", "P-state", "Runtime ratio", "Energy ratio",
                 "Node power (W)"},
                {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                 Align::kRight});
    std::string prev;
    const ToolchainFrequencyPoint* best = nullptr;
    for (const auto& p : matrix) {
      if (!prev.empty() && p.toolchain != prev) t.add_rule();
      prev = p.toolchain;
      t.add_row({p.toolchain, to_string(p.pstate),
                 TextTable::num(p.runtime_ratio, 3),
                 TextTable::num(p.energy_ratio, 3),
                 TextTable::num(p.node_power_w.w(), 0)});
      if (best == nullptr || p.energy_ratio < best->energy_ratio) best = &p;
    }
    std::cout << "Toolchain x frequency energy study: " << app_name << '\n'
              << t.str();
    std::cout << "Best energy-to-solution: " << best->toolchain << " at "
              << to_string(best->pstate) << " ("
              << TextTable::pct(1.0 - best->energy_ratio, 1)
              << " below the reference build at turbo)\n\n";
  }
  std::cout << "Reading: build quality moves energy-to-solution as much as "
               "the frequency lever, and the two interact — vectorised "
               "builds are more clock-sensitive, so the best frequency is "
               "build-dependent.\n";
  return 0;
}
