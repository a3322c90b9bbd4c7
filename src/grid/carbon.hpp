// Electricity-grid carbon intensity model.
//
// The paper's §2 emissions framework is parameterised by the grid's carbon
// intensity (gCO2/kWh) and splits into three regimes: very low (<30), where
// embodied (scope-3) emissions dominate and one should optimise application
// output; moderate (30-100), where scope 2 and 3 balance; and high (>100),
// where operational (scope-2) emissions dominate and energy efficiency
// wins even at some performance cost.
//
// Since real half-hourly UK grid data is not shipped with the paper, the
// synthetic generator produces a UK-shaped series: a seasonal term (higher
// intensity in winter), a diurnal term (overnight wind/low demand vs
// evening peak), and an AR(1) weather process for multi-day wind
// variability — enough structure to exercise any intensity-aware policy.
#pragma once

#include "telemetry/timeseries.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace hpcem {

/// §2 regimes for the scope-2/scope-3 balance.
enum class EmissionsRegime {
  kEmbodiedDominated,   ///< < 30 gCO2/kWh: optimise output per node-hour
  kBalanced,            ///< 30-100 gCO2/kWh: balance energy and output
  kOperationalDominated ///< > 100 gCO2/kWh: optimise energy efficiency
};

/// Classify a carbon intensity into the paper's regimes.
[[nodiscard]] EmissionsRegime classify_regime(CarbonIntensity ci);

[[nodiscard]] std::string to_string(EmissionsRegime r);

/// Parameters of the synthetic UK-shaped intensity series.
struct CarbonIntensityParams {
  /// Annual mean (UK ~2022).
  CarbonIntensity mean_g_per_kwh = CarbonIntensity::g_per_kwh(200.0);
  double seasonal_amplitude = 60.0;    ///< winter-summer swing
  double diurnal_amplitude = 40.0;     ///< overnight vs evening swing
  double weather_sigma = 45.0;         ///< AR(1) innovation scale
  double weather_correlation = 0.97;   ///< per-step AR(1) coefficient
  Duration step = Duration::minutes(30.0);
  /// Never below (nuclear baseload).
  CarbonIntensity floor_g_per_kwh = CarbonIntensity::g_per_kwh(15.0);
};

/// Generate a synthetic intensity series over [start, end).
[[nodiscard]] TimeSeries synthetic_carbon_intensity(
    const CarbonIntensityParams& params, SimTime start, SimTime end,
    Rng rng);

/// Wrap an intensity series with interpolation, window means and
/// scope-2 integration.
class CarbonIntensitySeries {
 public:
  explicit CarbonIntensitySeries(TimeSeries series);

  /// Intensity at an instant (interpolated, clamped at the ends).
  [[nodiscard]] CarbonIntensity at(SimTime t) const;

  /// Mean intensity over a window.
  [[nodiscard]] CarbonIntensity mean(SimTime a, SimTime b) const;

  /// Scope-2 emissions of a power series (kW channel) against this
  /// intensity series, integrated sample-by-sample.
  [[nodiscard]] CarbonMass emissions_of(const TimeSeries& power_kw) const;

  [[nodiscard]] const TimeSeries& series() const { return series_; }

 private:
  TimeSeries series_;
};

/// Electricity price model: a flat base price with a winter-stress
/// multiplier (the Winter 2022/23 context of the paper's work).
struct PriceModel {
  Price base = Price::gbp_per_kwh(0.25);
  double winter_multiplier = 1.5;  ///< applied in Nov-Feb

  [[nodiscard]] Price at(SimTime t) const;
  [[nodiscard]] Cost cost_of(const TimeSeries& power_kw) const;
};

}  // namespace hpcem
