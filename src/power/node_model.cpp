#include "power/node_model.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace hpcem {

namespace {

/// dvfs factor of the 2.0 GHz P-state relative to the app boost clock.
double phi_2ghz(const NodePowerParams& params, Frequency app_boost) {
  return dvfs_factor(params.cpu, Frequency::ghz(2.0), app_boost);
}

}  // namespace

DynamicPowerProfile calibrate_dynamic_profile(const NodePowerParams& params,
                                              Power loaded_at_boost,
                                              double power_ratio_at_2ghz,
                                              Frequency app_boost) {
  const double L = loaded_at_boost.w();
  const double S = params.idle.w();
  require(L > S, "calibrate_dynamic_profile: loaded power must exceed idle");
  require(power_ratio_at_2ghz > 0.0 && power_ratio_at_2ghz <= 1.0,
          "calibrate_dynamic_profile: power ratio must be in (0, 1]");
  const double phi = phi_2ghz(params, app_boost);
  require(phi < 1.0,
          "calibrate_dynamic_profile: app boost must exceed 2.0 GHz");

  // core·(1 - phi) = L·(1 - rho)  ;  uncore = L - S - core.
  DynamicPowerProfile p;
  p.core_w = Power::watts(L * (1.0 - power_ratio_at_2ghz) / (1.0 - phi));
  p.uncore_w = Power::watts(L - S - p.core_w.w());
  if (p.uncore_w < Power{}) {
    throw InvalidArgument(
        "calibrate_dynamic_profile: targets infeasible — loaded power " +
        std::to_string(L) + " W is below the minimum " +
        std::to_string(
            min_feasible_loaded_power(params, power_ratio_at_2ghz, app_boost)
                .w()) +
        " W for power ratio " + std::to_string(power_ratio_at_2ghz));
  }
  return p;
}

Power min_feasible_loaded_power(const NodePowerParams& params,
                                double power_ratio_at_2ghz,
                                Frequency app_boost) {
  require(power_ratio_at_2ghz > 0.0 && power_ratio_at_2ghz <= 1.0,
          "min_feasible_loaded_power: power ratio must be in (0, 1]");
  const double phi = phi_2ghz(params, app_boost);
  require(phi < 1.0,
          "min_feasible_loaded_power: app boost must exceed 2.0 GHz");
  // uncore = 0 at the bound: L - S = L (1 - rho) / (1 - phi).
  const double denom = 1.0 - (1.0 - power_ratio_at_2ghz) / (1.0 - phi);
  require(denom > 0.0,
          "min_feasible_loaded_power: ratio unreachable at any power");
  return Power::watts(params.idle.w() / denom);
}

NodePowerTerms node_power_terms(const NodePowerParams& params,
                                const DynamicPowerProfile& profile,
                                const NodeActivity& activity) {
  require(activity.load >= 0.0 && activity.load <= 1.0,
          "node_power: load must be in [0, 1]");
  require(is_valid_pstate(activity.pstate), "node_power: invalid P-state");

  const Frequency f_eff = effective_frequency(
      params.cpu, activity.pstate, activity.mode, activity.app_boost);
  const double phi = dvfs_factor(params.cpu, f_eff, activity.app_boost);

  NodePowerTerms t;
  t.idle_w = params.idle;
  t.load = activity.load;
  t.uncore_w = profile.uncore_w;
  t.core_phi_w = profile.core_w * phi;
  t.uplift = activity.mode == DeterminismMode::kPowerDeterminism
                 ? activity.power_det_uplift
                 : 0.0;
  return t;
}

Power node_power(const NodePowerParams& params,
                 const DynamicPowerProfile& profile,
                 const NodeActivity& activity) {
  require(activity.silicon_factor >= 0.0,
          "node_power: silicon_factor must be non-negative");
  return Power::watts(node_power_terms(params, profile, activity)
                          .watts(activity.silicon_factor));
}

}  // namespace hpcem
