#include "grid/carbon.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace hpcem {

EmissionsRegime classify_regime(CarbonIntensity ci) {
  require(ci.gkwh() >= 0.0, "classify_regime: intensity must be >= 0");
  if (ci.gkwh() < 30.0) return EmissionsRegime::kEmbodiedDominated;
  if (ci.gkwh() <= 100.0) return EmissionsRegime::kBalanced;
  return EmissionsRegime::kOperationalDominated;
}

std::string to_string(EmissionsRegime r) {
  switch (r) {
    case EmissionsRegime::kEmbodiedDominated:
      return "embodied-dominated (<30 gCO2/kWh)";
    case EmissionsRegime::kBalanced:
      return "balanced (30-100 gCO2/kWh)";
    case EmissionsRegime::kOperationalDominated:
      return "operational-dominated (>100 gCO2/kWh)";
  }
  return "unknown";
}

TimeSeries synthetic_carbon_intensity(const CarbonIntensityParams& params,
                                      SimTime start, SimTime end, Rng rng) {
  require(end > start, "synthetic_carbon_intensity: end must follow start");
  require(params.step.sec() > 0.0,
          "synthetic_carbon_intensity: step must be positive");
  constexpr double kTwoPi = 2.0 * std::numbers::pi;

  TimeSeries out("gCO2/kWh");
  double weather = 0.0;
  const double innovation_scale =
      params.weather_sigma *
      std::sqrt(1.0 - params.weather_correlation * params.weather_correlation);
  for (SimTime t = start; t < end; t += params.step) {
    const CivilDate d = date_from_sim_time(t);
    // Seasonal: peak intensity mid-January (doy ~15), trough mid-July.
    const double doy = static_cast<double>(day_of_year(d));
    const double seasonal =
        params.seasonal_amplitude * std::cos(kTwoPi * (doy - 15.0) / 365.25);
    // Diurnal: trough ~04:00, peak ~18:00.
    const double hour = seconds_into_day(t) / 3600.0;
    const double diurnal =
        params.diurnal_amplitude * std::sin(kTwoPi * (hour - 10.0) / 24.0);
    // Weather: AR(1), stationary variance = weather_sigma^2.
    weather = params.weather_correlation * weather +
              rng.normal(0.0, innovation_scale);
    const double value = std::max(
        params.floor_g_per_kwh.gkwh(),
        params.mean_g_per_kwh.gkwh() + seasonal + diurnal + weather);
    out.append(t, value);
  }
  return out;
}

CarbonIntensitySeries::CarbonIntensitySeries(TimeSeries series)
    : series_(std::move(series)) {
  require(!series_.empty(), "CarbonIntensitySeries: empty series");
}

CarbonIntensity CarbonIntensitySeries::at(SimTime t) const {
  return CarbonIntensity::g_per_kwh(series_.value_at(t));
}

CarbonIntensity CarbonIntensitySeries::mean(SimTime a, SimTime b) const {
  return CarbonIntensity::g_per_kwh(series_.mean_over(a, b));
}

CarbonMass CarbonIntensitySeries::emissions_of(
    const TimeSeries& power_kw) const {
  require(power_kw.size() >= 2,
          "CarbonIntensitySeries::emissions_of: need >= 2 power samples");
  double grams = 0.0;
  for (std::size_t i = 1; i < power_kw.size(); ++i) {
    const auto& prev = power_kw[i - 1];
    const auto& cur = power_kw[i];
    const double dt_h = (cur.time - prev.time).hrs();
    const double kwh = 0.5 * (prev.value + cur.value) * dt_h;
    const SimTime mid = prev.time + (cur.time - prev.time) / 2.0;
    grams += kwh * at(mid).gkwh();
  }
  return CarbonMass::grams(grams);
}

Price PriceModel::at(SimTime t) const {
  const CivilDate d = date_from_sim_time(t);
  const bool winter = d.month >= 11 || d.month <= 2;
  return winter ? Price::gbp_per_kwh(base.gbp_kwh() * winter_multiplier)
                : base;
}

Cost PriceModel::cost_of(const TimeSeries& power_kw) const {
  require(power_kw.size() >= 2, "PriceModel::cost_of: need >= 2 samples");
  double gbp = 0.0;
  for (std::size_t i = 1; i < power_kw.size(); ++i) {
    const auto& prev = power_kw[i - 1];
    const auto& cur = power_kw[i];
    const double dt_h = (cur.time - prev.time).hrs();
    const double kwh = 0.5 * (prev.value + cur.value) * dt_h;
    const SimTime mid = prev.time + (cur.time - prev.time) / 2.0;
    gbp += kwh * at(mid).gbp_kwh();
  }
  return Cost::gbp(gbp);
}

}  // namespace hpcem
