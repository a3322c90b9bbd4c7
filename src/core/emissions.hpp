// Lifetime emissions model: scope-2 vs scope-3 balance (paper §2).
//
// The paper's emissions framework: a service's lifetime emissions are the
// embodied (scope-3) emissions of manufacture/shipping/decommissioning plus
// the operational (scope-2) emissions of its electricity.  Which one
// dominates depends on the grid's carbon intensity, and that balance
// dictates operational strategy:
//   * scope-3 dominated  -> maximise output per node-hour (performance);
//   * balanced           -> trade performance and energy efficiency;
//   * scope-2 dominated  -> maximise output per kWh (energy efficiency),
//                           even at some performance cost.
//
// Default embodied total: ~10 ktCO2e over a 6-year service life — a
// DRI-scoping-style estimate (~1.3 tCO2e per dual-socket node plus fabric,
// storage and plant).  With ARCHER2's measured ~3.2 MW draw this places the
// scope2 == scope3 crossover near 55 gCO2/kWh, inside the paper's
// "balanced" 30-100 band, which is the consistency the model must exhibit.
#pragma once

#include <string>
#include <vector>

#include "grid/carbon.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Embodied-emissions parameters.
struct EmbodiedParams {
  CarbonMass total = CarbonMass::tonnes(10000.0);
  double lifetime_years = 6.0;

  [[nodiscard]] CarbonMass annual() const {
    return total / lifetime_years;
  }

  friend bool operator==(const EmbodiedParams&,
                         const EmbodiedParams&) = default;
};

/// Strategy recommendation derived from the scope balance.
enum class OperationalStrategy {
  kMaximisePerformance,  ///< scope-3 dominated
  kBalance,              ///< comparable scopes
  kMaximiseEnergyEfficiency,  ///< scope-2 dominated
};

[[nodiscard]] std::string to_string(OperationalStrategy s);

/// §2 strategy from a scope-2 share, scope2 / (scope2 + scope3): below 1/3
/// maximise performance, above 2/3 maximise energy efficiency, else
/// balance.
[[nodiscard]] OperationalStrategy strategy_for_scope2_share(double share);

/// One row of a scenario sweep over carbon intensity.
struct EmissionsScenario {
  CarbonIntensity intensity;
  CarbonMass annual_scope2;
  CarbonMass annual_scope3;
  double scope2_share = 0.0;  ///< scope2 / (scope2 + scope3)
  EmissionsRegime regime = EmissionsRegime::kBalanced;
  OperationalStrategy strategy = OperationalStrategy::kBalance;
};

/// Scope-2/scope-3 lifetime emissions model for a facility.
class EmissionsModel {
 public:
  EmissionsModel(EmbodiedParams embodied, Power mean_facility_power);

  [[nodiscard]] const EmbodiedParams& embodied() const { return embodied_; }
  [[nodiscard]] Power mean_power() const { return mean_power_; }

  /// Annual operational emissions at a given intensity.
  [[nodiscard]] CarbonMass annual_scope2(CarbonIntensity ci) const;
  /// Annual share of embodied emissions.
  [[nodiscard]] CarbonMass annual_scope3() const;
  /// scope2 / (scope2 + scope3) at a given intensity.
  [[nodiscard]] double scope2_share(CarbonIntensity ci) const;

  /// Intensity at which scope 2 equals scope 3.
  [[nodiscard]] CarbonIntensity crossover_intensity() const;

  /// §2 strategy recommendation at an intensity: the strategy for its
  /// scope-2 share.
  [[nodiscard]] OperationalStrategy recommend(CarbonIntensity ci) const;

  /// Evaluate one scenario row.
  [[nodiscard]] EmissionsScenario scenario(CarbonIntensity ci) const;

  /// Sweep rows over a list of intensities.
  [[nodiscard]] std::vector<EmissionsScenario> sweep(
      const std::vector<double>& intensities_g_per_kwh) const;

  /// Lifetime totals for a constant intensity: embodied + lifetime scope-2.
  [[nodiscard]] CarbonMass lifetime_total(CarbonIntensity ci) const;

  /// Emissions per node-hour delivered: the efficiency currency of §2.
  /// `node_hours_per_year` is the machine's delivered capacity.
  [[nodiscard]] double grams_per_node_hour(CarbonIntensity ci,
                                           double node_hours_per_year) const;

 private:
  EmbodiedParams embodied_;
  Power mean_power_;
};

}  // namespace hpcem
