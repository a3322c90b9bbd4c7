// Quickstart: load the baseline scenario, run a two-week ARCHER2 facility
// simulation under the baseline operating policy, and account the energy,
// cost and scope-2 emissions of the run.
//
//   $ ./quickstart
//
// This touches every layer of the library: facility assembly (core),
// simulation (sim/sched/workload/power), telemetry analysis and the
// grid/emissions accounting.
#include <iostream>

#include "core/energy.hpp"
#include "core/metrics.hpp"
#include "core/scenario_library.hpp"
#include "grid/carbon.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;

  // 1. The scenario and the machine.  The committed baseline scenario
  //    (scenarios/archer2-baseline.json) runs the ARCHER2 model, which
  //    carries the full Table 1/Table 2 calibration; everything below
  //    derives from it.  Narrow it to two weeks of production at the
  //    baseline policy (power determinism, 2.25 GHz + turbo default) after
  //    a 7-day warm-up.
  ScenarioSpec spec = load_named_scenario("archer2-baseline");
  spec.seed = 2024;
  spec.window_start = sim_time_from_date({2022, 2, 1});
  spec.window_end = spec.window_start + Duration::days(14.0);
  spec.warmup = Duration::days(7.0);
  const FacilityAssembly assembly(spec);
  const Facility& facility = assembly.facility();
  std::cout << "Facility: " << facility.name() << " — "
            << TextTable::grouped(
                   static_cast<double>(facility.inventory().compute_nodes))
            << " nodes, "
            << TextTable::grouped(
                   static_cast<double>(facility.inventory().total_cores()))
            << " cores\n\n";

  // 2. Simulate the window.
  const SimTime start = spec.window_start;
  const SimTime end = spec.window_end;
  std::cout << "Simulating " << iso_date(date_from_sim_time(start)) << " .. "
            << iso_date(date_from_sim_time(end)) << " ...\n";
  const auto sim = assembly.run_simulator();

  const PowerKw mean_kw = sim->mean_cabinet_kw(start, end);
  const double util = sim->mean_utilisation(start, end);
  std::cout << "  mean compute-cabinet power: "
            << TextTable::grouped(mean_kw.kw())
            << " kW (paper baseline: 3,220)\n"
            << "  mean utilisation:           " << TextTable::pct(util, 1)
            << " (paper: consistently over 90%)\n"
            << "  jobs completed:             "
            << TextTable::grouped(
                   static_cast<double>(sim->completed().size()))
            << "\n\n";

  // 3. Account the window: energy, cost, scope-2 emissions against a
  //    synthetic UK-shaped carbon-intensity year.
  const TimeSeries cabinet =
      sim->telemetry().channel(channels::kCabinetKw).slice(start, end);
  const CarbonIntensitySeries intensity(synthetic_carbon_intensity(
      CarbonIntensityParams{}, start, end, Rng(7)));
  const EnergyAccountant accountant(PriceModel{}, intensity);
  const EnergyAccount account = accountant.account(cabinet);

  TextTable t({"Quantity", "Value"}, {Align::kLeft, Align::kRight});
  t.add_row({"window", TextTable::num(account.span.day(), 0) + " days"});
  t.add_row({"energy", TextTable::grouped(account.energy.to_mwh()) + " MWh"});
  t.add_row({"electricity cost",
             "GBP " + TextTable::grouped(account.cost.pounds())});
  t.add_row({"scope-2 emissions",
             TextTable::grouped(account.scope2.t()) + " tCO2e"});
  t.add_row({"mean carbon intensity",
             TextTable::num(intensity.mean(start, end).gkwh(), 0) +
                 " gCO2/kWh"});
  std::cout << t.str() << '\n';

  // 4. Service quality over the same window (the other side of the trade
  //    the paper's operational decisions navigate).
  std::cout << render_service_metrics(
                   compute_service_metrics(sim->completed()))
            << '\n';

  // 5. What the paper's two changes would save over this window.
  const Power now = mean_kw.to_power();
  const Power tuned = facility.predicted_cabinet_power(
      OperatingPolicy::low_frequency_default(), util);
  const Energy saved = (now - tuned) * (end - start);
  std::cout << "Applying the paper's two operational changes would save ~"
            << TextTable::grouped(saved.to_mwh()) << " MWh over this window ("
            << TextTable::pct((now - tuned) / now, 1) << " of cabinet draw).\n";
  return 0;
}
