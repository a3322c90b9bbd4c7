#include "core/emissions.hpp"

#include "util/error.hpp"

namespace hpcem {

std::string to_string(OperationalStrategy s) {
  switch (s) {
    case OperationalStrategy::kMaximisePerformance:
      return "maximise application performance";
    case OperationalStrategy::kBalance:
      return "balance performance and energy efficiency";
    case OperationalStrategy::kMaximiseEnergyEfficiency:
      return "maximise energy efficiency";
  }
  return "unknown";
}

EmissionsModel::EmissionsModel(EmbodiedParams embodied,
                               Power mean_facility_power)
    : embodied_(embodied), mean_power_(mean_facility_power) {
  require(embodied_.total.g() > 0.0,
          "EmissionsModel: embodied total must be positive");
  require(embodied_.lifetime_years > 0.0,
          "EmissionsModel: lifetime must be positive");
  require(mean_power_.w() > 0.0,
          "EmissionsModel: mean power must be positive");
}

CarbonMass EmissionsModel::annual_scope2(CarbonIntensity ci) const {
  require(ci.gkwh() >= 0.0, "annual_scope2: intensity must be >= 0");
  const Energy annual_energy = mean_power_ * Duration::days(365.25);
  return annual_energy * ci;
}

CarbonMass EmissionsModel::annual_scope3() const { return embodied_.annual(); }

double EmissionsModel::scope2_share(CarbonIntensity ci) const {
  const double s2 = annual_scope2(ci).g();
  const double s3 = annual_scope3().g();
  return s2 / (s2 + s3);
}

CarbonIntensity EmissionsModel::crossover_intensity() const {
  const Energy annual_energy = mean_power_ * Duration::days(365.25);
  return CarbonIntensity::g_per_kwh(annual_scope3().g() /
                                    annual_energy.to_kwh());
}

OperationalStrategy strategy_for_scope2_share(double share) {
  if (share < 1.0 / 3.0) return OperationalStrategy::kMaximisePerformance;
  if (share > 2.0 / 3.0) {
    return OperationalStrategy::kMaximiseEnergyEfficiency;
  }
  return OperationalStrategy::kBalance;
}

OperationalStrategy EmissionsModel::recommend(CarbonIntensity ci) const {
  return strategy_for_scope2_share(scope2_share(ci));
}

EmissionsScenario EmissionsModel::scenario(CarbonIntensity ci) const {
  EmissionsScenario s;
  s.intensity = ci;
  s.annual_scope2 = annual_scope2(ci);
  s.annual_scope3 = annual_scope3();
  s.scope2_share = scope2_share(ci);
  s.regime = classify_regime(ci);
  s.strategy = recommend(ci);
  return s;
}

std::vector<EmissionsScenario> EmissionsModel::sweep(
    const std::vector<double>& intensities_g_per_kwh) const {
  std::vector<EmissionsScenario> out;
  out.reserve(intensities_g_per_kwh.size());
  for (double g : intensities_g_per_kwh) {
    out.push_back(scenario(CarbonIntensity::g_per_kwh(g)));
  }
  return out;
}

CarbonMass EmissionsModel::lifetime_total(CarbonIntensity ci) const {
  return embodied_.total + annual_scope2(ci) * embodied_.lifetime_years;
}

double EmissionsModel::grams_per_node_hour(
    CarbonIntensity ci, double node_hours_per_year) const {
  require(node_hours_per_year > 0.0,
          "grams_per_node_hour: capacity must be positive");
  const double annual_g = annual_scope2(ci).g() + annual_scope3().g();
  return annual_g / node_hours_per_year;
}

}  // namespace hpcem
