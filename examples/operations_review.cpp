// Operations review: the monthly report an ARCHER2-style service would
// produce from its telemetry and accounting data.
//
// Simulates one production month, then generates: the cabinet power
// timeline with weekly texture, service quality metrics, energy/emissions
// attribution by research community, and a day-ahead power forecast for
// the grid operator — every analysis in the paper's operational toolbox,
// in one run.
#include <iostream>

#include "core/accounting.hpp"
#include "core/energy.hpp"
#include "core/metrics.hpp"
#include "core/scenario_library.hpp"
#include "grid/carbon.hpp"
#include "telemetry/forecast.hpp"
#include "util/ascii_plot.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;
  // One production month under the post-change configuration.
  ScenarioSpec spec = load_named_scenario("archer2-baseline");
  spec.seed = 1701;
  spec.window_start = sim_time_from_date({2023, 1, 1});
  spec.window_end = sim_time_from_date({2023, 2, 1});
  spec.warmup = Duration::days(14.0);
  spec.policy = OperatingPolicy::low_frequency_default();
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  const SimTime start = spec.window_start;
  const SimTime end = spec.window_end;

  const TimeSeries cabinet =
      sim->telemetry().channel(channels::kCabinetKw).slice(start, end);

  // 1. The month at a glance.
  AsciiPlotOptions opts;
  opts.title = "Compute-cabinet power, Jan 2023 (2.0 GHz default policy)";
  opts.y_label = "kW";
  opts.height = 12;
  opts.reference_lines = {cabinet.mean()};
  opts.x_ticks = {"Jan 2023", "Feb 2023"};
  std::cout << ascii_plot(cabinet.values(), opts) << '\n';

  const WeeklyDecomposition weekly = decompose_weekly(cabinet);
  std::cout << "mean " << TextTable::grouped(cabinet.mean())
            << " kW | weekday-weekend swing "
            << TextTable::num(weekly.weekday_weekend_delta, 0)
            << " kW | utilisation "
            << TextTable::pct(sim->mean_utilisation(start, end), 1)
            << "\n\n";

  // 2. Service quality.
  std::cout << render_service_metrics(
                   compute_service_metrics(sim->completed()))
            << '\n';

  // 3. Energy and emissions attribution (winter grid).
  const CarbonIntensitySeries intensity(synthetic_carbon_intensity(
      CarbonIntensityParams{}, start, end, Rng(3)));
  const CarbonIntensity month_ci = intensity.mean(start, end);
  std::cout << render_usage_breakdown(account_usage(
                   sim->completed(), assembly.facility().catalog(), month_ci))
            << "(attributed at the month's mean intensity of "
            << TextTable::num(month_ci.gkwh(), 0) << " gCO2/kWh)\n\n";

  // 4. The bill.
  const EnergyAccountant accountant(PriceModel{}, intensity);
  const EnergyAccount account = accountant.account(cabinet);
  std::cout << "Cabinet energy: "
            << TextTable::grouped(account.energy.to_mwh())
            << " MWh | electricity cost: GBP "
            << TextTable::grouped(account.cost.pounds())
            << " | scope-2: " << TextTable::grouped(account.scope2.t())
            << " t\n\n";

  // 5. Day-ahead commitment for the grid operator.
  const PowerForecaster forecaster(cabinet);
  const TimeSeries tomorrow = forecaster.forecast_series(
      end, end + Duration::days(1.0), Duration::hours(1.0));
  const Summary fc = tomorrow.summary();
  std::cout << "Day-ahead forecast (1 Feb): mean "
            << TextTable::grouped(fc.mean) << " kW, envelope "
            << TextTable::grouped(fc.min) << " - "
            << TextTable::grouped(fc.max)
            << " kW — the commitment a demand-response contract needs.\n";
  return 0;
}
