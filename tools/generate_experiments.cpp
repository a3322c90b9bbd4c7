// Generates EXPERIMENTS.md: runs every reproduction and writes the
// paper-vs-model record.  Regenerate after model changes with:
//
//   ./build/tools/generate_experiments > EXPERIMENTS.md
//
// Everything here is deterministic (fixed seeds), so the committed file is
// reproducible bit-for-bit.
#include <iostream>

#include "core/efficiency.hpp"
#include "core/embodied_audit.hpp"
#include "core/priorities.hpp"
#include "core/report.hpp"
#include "core/scenario_library.hpp"
#include "telemetry/seasonal.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/text_table.hpp"

namespace {

void print_benchmark_tables(const hpcem::Facility& facility) {
  using namespace hpcem;
  const EfficiencyAnalyzer analyzer(facility.catalog());
  std::cout << "## T3 — Table 3: BIOS determinism change\n\n"
            << "Reference: power determinism; candidate: performance "
               "determinism; both at 2.25 GHz + turbo.  The energy ratios "
               "are calibration anchors (the per-application determinism "
               "uplift is fitted to them); the performance ratios are "
               "emergent from the boost-clock model.\n\n"
            << render_benchmark_table(analyzer.table3(), "") << '\n';
  std::cout << "## T4 — Table 4: 2.0 GHz vs 2.25 GHz + turbo\n\n"
            << "Both columns are calibration anchors: the published "
               "performance ratio fixes each application's clock-sensitive "
               "fraction (given the ~2.8 GHz achieved boost) and the "
               "published energy ratio fixes its dynamic-power split.  The "
               "check is that the model reproduces them simultaneously "
               "through one consistent physical parameterisation.\n\n"
            << render_benchmark_table(analyzer.table4(), "") << '\n';
}

void print_figures(const hpcem::TimelineResult& f1,
                   const hpcem::TimelineResult& f2,
                   const hpcem::TimelineResult& f3) {
  using namespace hpcem;
  std::cout << "## F1 — Figure 1: baseline cabinet power "
               "(Dec 2021 – Apr 2022)\n\n```\n"
            << render_timeline(f1, "") << "```\n\n"
            << "Paper mean: **3,220 kW**; model window mean: **"
            << TextTable::grouped(f1.headline.mean_kw.kw()) << " kW** ("
            << TextTable::pct(f1.headline.mean_kw.kw() / 3220.0 - 1.0, 1)
            << " off) at " << TextTable::pct(f1.headline.mean_utilisation, 1)
            << " utilisation.\n\n";
  const WeeklyDecomposition weekly = decompose_weekly(f1.cabinet_kw);
  std::cout << "Weekly texture: weekday-weekend swing "
            << TextTable::num(weekly.weekday_weekend_delta, 0)
            << " kW, residual sigma "
            << TextTable::num(weekly.residual_stddev, 0) << " kW.\n\n";

  std::cout << "## F2 — Figure 2: BIOS change (Apr – May 2022)\n\n```\n"
            << render_timeline(f2, "") << "```\n\n"
            << "Paper: 3,220 → 3,010 kW (−210 kW). Model: **"
            << TextTable::grouped(f2.headline.mean_before_kw.kw()) << " → "
            << TextTable::grouped(f2.headline.mean_after_kw.kw()) << " kW** (−"
            << TextTable::grouped((f2.headline.mean_before_kw - f2.headline.mean_after_kw).kw())
            << " kW).\n\n";

  std::cout << "## F3 — Figure 3: frequency change (Nov – Dec 2022)\n\n```\n"
            << render_timeline(f3, "") << "```\n\n"
            << "Paper: 3,010 → 2,530 kW (−480 kW). Model: **"
            << TextTable::grouped(f3.headline.mean_before_kw.kw()) << " → "
            << TextTable::grouped(f3.headline.mean_after_kw.kw()) << " kW** (−"
            << TextTable::grouped((f3.headline.mean_before_kw - f3.headline.mean_after_kw).kw())
            << " kW).\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcem;
  ArgParser args(
      "generate_experiments — run every reproduction and print "
      "EXPERIMENTS.md to stdout");
  args.set_version(tools::version_line("generate_experiments"));
  if (!args.parse(argc, argv)) return tools::parse_exit(args);

  const Facility facility = Facility::archer2();

  std::cout <<
      "# EXPERIMENTS — paper vs model\n\n"
      "Generated by `tools/generate_experiments` (deterministic seeds; "
      "regenerate with `./build/tools/generate_experiments > "
      "EXPERIMENTS.md`).  Each experiment names its bench binary; run "
      "them individually from `build/bench/`.\n\n"
      "Calibrated quantities (used to fit model parameters) are marked as "
      "such; everything else is emergent from the facility simulation.\n\n";

  std::cout << "## T1 — Table 1: hardware summary "
               "(`bench_table1_hardware`)\n\n"
            << render_hardware_summary(facility) << '\n';

  NodeActivity loaded;
  loaded.load = 1.0;
  loaded.pstate = pstates::kHighTurbo;
  loaded.mode = DeterminismMode::kPowerDeterminism;
  loaded.power_det_uplift = facility.catalog().mix_average(
      [](const ApplicationModel& a) { return a.spec().power_det_uplift; });
  std::cout << "## T2 — Table 2: component power "
               "(`bench_table2_components`)\n\n"
            << render_component_table(
                   facility.power_model().component_table(loaded))
            << '\n';

  print_benchmark_tables(facility);
  // Each figure campaign runs once; the conclusions reuse the results.
  const auto run = [](const char* name) {
    return FacilityAssembly(load_named_scenario(name)).run();
  };
  const TimelineResult f1 = run("figure1");
  const TimelineResult f2 = run("figure2");
  const TimelineResult f3 = run("figure3");
  print_figures(f1, f2, f3);

  std::cout << "## C1 — §5 conclusions (`bench_conclusions_summary`)\n\n"
            << render_conclusions(conclusions(f1, f2, f3)) << '\n';

  const EmissionsModel emissions(EmbodiedAudit::archer2().amortise(6.0),
                                 Power::kilowatts(3220.0 / 0.9));
  std::cout << "## E1 — §2 emissions regimes "
               "(`bench_emissions_regimes`, `bench_scope3_audit`)\n\n"
            << render_emissions_sweep(
                   emissions.sweep({0, 10, 20, 30, 50, 80, 100, 150, 200,
                                    300}))
            << "\nscope2 == scope3 crossover at the audited embodied total: "
            << TextTable::num(emissions.crossover_intensity().gkwh(), 1)
            << " gCO2/kWh — inside the paper's balanced 30-100 band.\n\n";

  const PriorityAdvisor advisor(facility, 0.91);
  std::cout << "## P1 — §5 priority matrix (`bench_priority_matrix`)\n\n"
               "```\n"
            << advisor.render(CarbonIntensity::g_per_kwh(55.0),
                              Price::gbp_per_kwh(0.20))
            << "```\n\n";

  std::cout <<
      "## Ablations and extension studies\n\n"
      "| Harness | Question | Headline |\n"
      "|---|---|---|\n"
      "| `bench_ablation_utilisation` | how does energy/node-hour degrade "
      "below full load? | idle nodes at ~50% loaded draw make <90% "
      "utilisation expensive |\n"
      "| `bench_ablation_optout` | what does the >10% auto-revert trade? | "
      "revert halves the mix slowdown for ~100 kW of the saving |\n"
      "| `bench_ablation_determinism` | mechanism of Table 3 | performance "
      "determinism collapses the per-silicon power spread |\n"
      "| `bench_ablation_gridcitizen` | can caps be met on request? | "
      "lever set spans ~3,240→2,220 kW at 0–24% mix slowdown |\n"
      "| `bench_ablation_powercap` | node power caps vs frequency default "
      "| same fleet draw, different victims: hot codes vs clock-sensitive "
      "codes |\n"
      "| `bench_ablation_carbon_shift` | shift deferrable jobs to cleaner "
      "hours | ~10% scope-2 saving at 24 h flexibility on half the load |\n"
      "| `bench_ablation_compiler` | build toolchain × frequency | best "
      "energy setting is build-dependent |\n"
      "| `bench_ablation_surrogate` | AI surrogate replacement | training "
      "amortises after ~70 runs for a UM-like campaign |\n"
      "| `bench_ablation_idlepower` | suspend idle nodes? | negligible at "
      ">90% utilisation — the paper's levers target loaded power |\n"
      "| `bench_scope3_audit` | where do embodied emissions sit? | nodes "
      "~91% of ~8.8 ktCO2e; crossover ~47 gCO2/kWh |\n"
      "| `bench_pue_seasonal` | cooling overhead | ~1.05 annual PUE "
      "amplifies every IT kW saved |\n"
      "| `bench_micro_sim` | engine/scheduler/model throughput | "
      "google-benchmark microbenchmarks |\n"
      "| `bench_ablation_qos` | FIFO vs QoS priority discipline | "
      "short-class p95 wait collapses; low-priority absorbs the delay |\n"
      "| `bench_ablation_partition` | cost of the standard/highmem fence | "
      "cheap at balanced demand, strands idle power when unbalanced |\n"
      "| `bench_usage_breakdown` | energy by research community | "
      "HPC-JEEP-style attribution table |\n"
      "| `bench_tco` | lifetime electricity vs capital | electricity "
      "matches capital near 0.42 GBP/kWh; the paper's intro claim |\n";
  return 0;
}
