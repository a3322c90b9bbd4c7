// Good grid citizen: respond to winter grid-stress windows by switching to
// the least-damaging operating policy that meets the requested power cap —
// the Winter 2022/23 scenario that motivated the paper's work (§3).
//
// The example builds a January week with two evening stress windows, runs
// the facility simulator with policy changes at the window edges, and
// verifies from the telemetry that the cap was honoured.
#include <iostream>
#include <vector>

#include "core/facility.hpp"
#include "core/scenario_library.hpp"
#include "grid/demand_response.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;
  const Facility facility = Facility::archer2();
  const double util = 0.90;

  // The operational levers available to the service, with their predicted
  // draw and performance cost.
  auto lever = [&](OperatingPolicy p) {
    PolicyOption o;
    o.policy = p;
    o.predicted_cabinet = facility.predicted_cabinet_power(p, util);
    o.mean_slowdown = facility.mean_slowdown(p);
    return o;
  };
  OperatingPolicy low_all = OperatingPolicy::low_frequency_default();
  low_all.auto_revert_enabled = false;
  OperatingPolicy floor = low_all;
  floor.default_pstate = pstates::kLow;
  const std::vector<PolicyOption> levers = {
      lever(OperatingPolicy::performance_determinism()),
      lever(OperatingPolicy::low_frequency_default()),
      lever(low_all),
      lever(floor),
  };

  // Two evening stress windows in a January week.
  const SimTime week = sim_time_from_date({2023, 1, 16});
  DemandResponseSchedule schedule;
  schedule.add({week + Duration::hours(17.0), week + Duration::hours(21.0),
                Power::kilowatts(2600.0)});
  schedule.add({week + Duration::days(2.0) + Duration::hours(16.0),
                week + Duration::days(2.0) + Duration::hours(22.0),
                Power::kilowatts(2300.0)});

  std::cout << "Grid stress calendar:\n";
  TextTable cal({"Window", "Requested cap", "Chosen policy draw",
                 "Mix slowdown"},
                {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});

  // Simulate the week.  Jobs keep the frequency they started with, so the
  // draw decays towards the target over roughly one job-turnover time; the
  // lever is therefore pulled with lead time, as a real demand-response
  // notification would allow.
  const Duration lead = Duration::hours(10.0);
  ScenarioSpec spec = load_named_scenario("archer2-baseline");
  spec.seed = 31;
  spec.window_start = week;
  spec.window_end = week + Duration::days(5.0);
  spec.warmup = Duration::days(7.0);
  spec.policy = OperatingPolicy::performance_determinism();
  for (const auto& ev : schedule.events()) {
    const PolicyOption& chosen = choose_policy_for_cap(levers, ev.cabinet_cap);
    spec.changes.push_back({ev.start - lead, chosen.policy});
    spec.changes.push_back(
        {ev.end, OperatingPolicy::performance_determinism()});
    cal.add_row({iso_date_time(ev.start) + " .. " + iso_date_time(ev.end),
                 TextTable::grouped(ev.cabinet_cap.kw()) + " kW",
                 TextTable::grouped(chosen.predicted_cabinet.kw()) + " kW",
                 TextTable::pct(chosen.mean_slowdown, 1)});
  }
  std::cout << cal.str() << '\n';

  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();

  // Verify the response from the telemetry over the last hour of each
  // window, when the turnover decay has largely completed.
  std::cout << "Measured response with " << lead.hrs()
            << " h lead time (final hour of each window):\n";
  TextTable out({"Window end", "Cap", "Measured draw", "Margin"},
                {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (const auto& ev : schedule.events()) {
    const PowerKw measured =
        sim->mean_cabinet_kw(ev.end - Duration::hours(1.0), ev.end);
    out.add_row({iso_date_time(ev.end),
                 TextTable::grouped(ev.cabinet_cap.kw()) + " kW",
                 TextTable::grouped(measured.kw()) + " kW",
                 TextTable::grouped(ev.cabinet_cap.kw() - measured.kw()) +
                     " kW"});
  }
  std::cout << out.str() << '\n';

  const PowerKw normal = sim->mean_cabinet_kw(
      week - Duration::days(3.0), week - Duration::days(1.0));
  std::cout << "Normal-operation draw for comparison: "
            << TextTable::grouped(normal.kw()) << " kW\n";
  return 0;
}
