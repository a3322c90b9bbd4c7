// Ablation: suspending idle nodes, simulated.
//
// The paper's conclusion: idle nodes draw ~50% of loaded power, so the
// efficient operating point is ~100% utilisation.  The complementary lever
// is putting idle nodes into a low-power state.  This harness simulates
// the committed `idle-suspend` and `archer2-baseline` specs as a pair:
// same seed, start date and warm-up, so the job stream and every
// scheduling decision are the same and only the idle draw differs.  It
// reports the saving over the idle-suspend window, annualised, and exits 1
// if the pair's scheduler channels differ.
#include <iostream>

#include "core/assembly.hpp"
#include "core/scenario_library.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;
  const ScenarioSpec suspend_spec = load_named_scenario("idle-suspend");
  const ScenarioSpec base_spec = load_named_scenario("archer2-baseline");
  if (suspend_spec.seed != base_spec.seed ||
      suspend_spec.window_start != base_spec.window_start ||
      suspend_spec.warmup != base_spec.warmup) {
    std::cerr << "idle-suspend and archer2-baseline must share seed, start "
                 "and warm-up\n";
    return 1;
  }
  const FacilityAssembly suspend_assembly(suspend_spec);
  const FacilityAssembly base_assembly(base_spec);
  const auto suspend = suspend_assembly.run_simulator();
  const auto base = base_assembly.run_simulator();

  // The pair differs only in idle draw: scheduler state must match on
  // every sample of the idle-suspend run, warm-up included.
  const SimTime from = suspend_spec.window_start - suspend_spec.warmup;
  const SimTime a = suspend_spec.window_start;
  const SimTime b = suspend_spec.window_end;
  std::size_t samples = 0;
  for (const char* name :
       {channels::kUtilisation, channels::kQueueLength,
        channels::kRunningJobs}) {
    const TimeSeries x = suspend->telemetry().channel(name).slice(from, b);
    const TimeSeries y = base->telemetry().channel(name).slice(from, b);
    bool same = x.size() == y.size();
    for (std::size_t i = 0; same && i < x.size(); ++i) {
      same = x[i].time == y[i].time && x[i].value == y[i].value;
    }
    if (!same) {
      std::cerr << "idle-suspend and archer2-baseline differ in " << name
                << ": the pair no longer isolates the idle draw\n";
      return 1;
    }
    samples = x.size();
  }

  const auto mean_kw = [&](const FacilitySimulator& sim, const char* name) {
    return PowerKw{sim.telemetry().channel(name).mean_over(a, b)};
  };
  const double util = suspend->mean_utilisation(a, b);
  TextTable t({"Scenario", "Utilisation", "Node fleet (kW)", "Cabinet (kW)"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (const auto* run : {base.get(), suspend.get()}) {
    t.add_row({run == base.get() ? base_spec.name : suspend_spec.name,
               TextTable::pct(run->mean_utilisation(a, b), 1),
               TextTable::num(mean_kw(*run, channels::kNodeFleetKw).kw(), 2),
               TextTable::num(mean_kw(*run, channels::kCabinetKw).kw(), 2)});
  }
  // Only the node fleet's idle draw moves, so the cabinet falls by the
  // same amount.
  const PowerKw saving = mean_kw(*base, channels::kNodeFleetKw) -
                        mean_kw(*suspend, channels::kNodeFleetKw);
  const EnergyKwh annual = saving * Duration::days(365.25);

  const IdlePowerPolicy& policy = suspend_spec.idle_policy;
  std::cout << "Ablation: idle-node suspension, simulated ("
            << TextTable::num(policy.suspended.w(), 0) << " W suspended, "
            << TextTable::pct(policy.suspendable_fraction, 0)
            << " of idle nodes eligible)\n"
            << "Window " << iso_date_time(a) << " to " << iso_date_time(b)
            << ", seed " << suspend_spec.seed
            << "; scheduler state identical on all "
            << TextTable::grouped(static_cast<double>(samples))
            << " samples\n"
            << t.str() << '\n'
            << "Saving at " << TextTable::pct(util, 1)
            << " utilisation: " << TextTable::num(saving.kw(), 1)
            << " kW, " << TextTable::grouped(annual.to_energy().to_mwh())
            << " MWh a year\n\n"
            << "Reading: at the paper's >90% utilisation the idle fleet is "
               "small, so suspension saves little on ARCHER2 — which is "
               "exactly why the paper's levers target *loaded* power. The "
               "lever matters for facilities running below ~85%.\n";
  return 0;
}
