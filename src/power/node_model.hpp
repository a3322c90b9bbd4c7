// Compute-node power model and its calibration from published measurements.
//
// Node power decomposes as
//
//   P(node) = idle  +  uncore_w · load  +  core_w · load · dvfs(f_eff) · det
//
// where `load` is the fraction of the node busy with user work, `dvfs` is
// the f·V² factor from cpu_model.hpp normalised at the application's boost
// clock, and `det` is the power-determinism uplift (1 + uplift·silicon) that
// disappears under performance determinism.
//
// Calibration: the paper publishes, per application, the loaded node power
// ratio between 2.0 GHz and 2.25 GHz + turbo (derivable from Table 4's
// energy and performance ratios as ratio_P = ratio_E · ratio_perf) and the
// loaded node draw (Table 2: ~0.51 kW fleet average).  Given a target loaded
// power L at boost and a target power ratio rho at 2.0 GHz,
// `calibrate_dynamic_profile` solves the 2x2 system for (core_w, uncore_w):
//
//   idle + uncore + core            = L
//   idle + uncore + core·dvfs(2.0)  = rho · L
//
// and validates feasibility (uncore >= 0), which bounds L from below for
// strongly clock-sensitive codes.
#pragma once

#include "power/cpu_model.hpp"
#include "power/pstate.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Static (always-on) node parameters.  Defaults reproduce Table 2's
/// 0.23 kW idle per node.
struct NodePowerParams {
  Power idle = Power::watts(230.0);
  CpuModelParams cpu{};
};

/// Per-application dynamic power split (watts at full node load, at the
/// application's boost clock, performance-determinism mode).
struct DynamicPowerProfile {
  Power core_w;    ///< scales with f·V(f)²
  Power uncore_w;  ///< clock-insensitive (DRAM, fabric, NIC)

  [[nodiscard]] Power total_w() const { return core_w + uncore_w; }
};

/// Solve for the dynamic profile matching a loaded power target and a
/// 2.0 GHz power ratio target (see file comment).  Throws InvalidArgument
/// if the targets are infeasible for the given idle floor.
[[nodiscard]] DynamicPowerProfile calibrate_dynamic_profile(
    const NodePowerParams& params, Power loaded_at_boost,
    double power_ratio_at_2ghz, Frequency app_boost);

/// Minimum feasible loaded power for a given power ratio target (the bound
/// at which uncore_w would go negative).
[[nodiscard]] Power min_feasible_loaded_power(const NodePowerParams& params,
                                              double power_ratio_at_2ghz,
                                              Frequency app_boost);

/// Inputs describing what a node is running.
struct NodeActivity {
  /// Fraction of the node executing user work, in [0, 1].
  double load = 1.0;
  /// P-state selected for the work.
  PState pstate = pstates::kHighTurbo;
  /// BIOS mode.
  DeterminismMode mode = DeterminismMode::kPerformanceDeterminism;
  /// Application boost clock at reference conditions.
  Frequency app_boost = Frequency::ghz(2.8);
  /// Mean power-determinism uplift for this application (fraction of
  /// dynamic power added when the BIOS chases the power limit).
  double power_det_uplift = 0.16;
  /// Per-node silicon quality factor (mean 1.0 across the fleet); scales
  /// the determinism uplift — better parts boost harder and draw more.
  double silicon_factor = 1.0;
};

/// Loop-invariant terms of `node_power` for a fixed (load, P-state, mode,
/// dynamic profile): across a fleet — or a policy epoch — only the silicon
/// factor varies, so the DVFS power-law state (effective clock, f·V² factor,
/// determinism uplift) can be hoisted once and each node evaluated with two
/// multiply-adds.  `watts(s)` reproduces `node_power` bit-for-bit: the
/// floating-point expression is identical term by term.
struct NodePowerTerms {
  Power idle_w;
  double load = 1.0;
  Power uncore_w;
  /// core_w scaled by the dvfs factor at the effective clock.
  Power core_phi_w;
  /// Per-silicon determinism uplift (0 under performance determinism).
  double uplift = 0.0;

  [[nodiscard]] double watts(double silicon_factor) const {
    const double det = 1.0 + uplift * silicon_factor;
    return (idle_w + (uncore_w + core_phi_w * det) * load).w();
  }
};

/// Hoist the silicon-independent part of `node_power` (validates the
/// activity's load/P-state once; `activity.silicon_factor` is ignored).
[[nodiscard]] NodePowerTerms node_power_terms(
    const NodePowerParams& params, const DynamicPowerProfile& profile,
    const NodeActivity& activity);

/// Evaluate node electrical power for an activity and dynamic profile.
[[nodiscard]] Power node_power(const NodePowerParams& params,
                               const DynamicPowerProfile& profile,
                               const NodeActivity& activity);

}  // namespace hpcem
