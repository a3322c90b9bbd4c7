// Node-level power capping (RAPL/cray-style) as an operational lever.
//
// The paper's two levers act through BIOS mode and the frequency default.
// Production systems expose a third: a per-node power cap that the firmware
// enforces by throttling the clock until the node draws no more than the
// cap.  The model inverts the node power function: given a cap, find the
// effective core clock on the continuous DVFS curve (bisection on the
// monotone f·V(f)² law), then feed that clock through the same roofline
// performance model the rest of the library uses.  This makes caps and
// frequency defaults directly comparable: same fleet saving, different
// per-application performance distribution — capping hurts power-hungry
// codes most, while a frequency default hurts clock-sensitive codes most.
#pragma once

#include <optional>

#include "power/node_model.hpp"
#include "workload/catalog.hpp"

namespace hpcem {

/// Result of applying a cap to one application's node.
struct CappedOperatingPoint {
  /// Clock the firmware settles at (<= the uncapped effective clock).
  Frequency effective;
  /// Node draw at that clock (<= cap, == cap when throttled).
  Power node_power;
  /// True if the cap actually bound (the app drew more uncapped).
  bool throttled = false;
  /// Runtime multiplier vs the uncapped turbo reference.
  double time_factor = 1.0;
};

/// Lowest clock the throttle model will settle at.
inline constexpr double kMinThrottleGhz = 1.0;

/// Solve the throttle point for an application under a node power cap,
/// starting from the turbo operating point (performance determinism).
/// Caps below the node's draw at kMinThrottleGhz are unreachable and
/// reported as throttled at kMinThrottleGhz (firmware floor), matching
/// real RAPL behaviour where idle/uncore power is not cappable.
[[nodiscard]] CappedOperatingPoint apply_power_cap(
    const ApplicationModel& app, Power cap);

/// Fleet planning: the cap that yields a target mix-average node draw.
/// Returns nullopt if the target is below the fleet's floor draw.
[[nodiscard]] std::optional<Power> cap_for_target_draw(
    const AppCatalog& catalog, Power target_mean_draw);

/// One row of the cap-vs-frequency comparison.
struct CapComparisonRow {
  std::string app;
  double cap_time_factor = 0.0;   ///< runtime multiplier under the cap
  double freq_time_factor = 0.0;  ///< runtime multiplier at 2.0 GHz
  Power cap_node_w;
  Power freq_node_w;
};

/// Compare a node power cap against the 2.0 GHz default at matched fleet
/// draw, per production application.
[[nodiscard]] std::vector<CapComparisonRow> compare_cap_vs_frequency(
    const AppCatalog& catalog, Power cap);

}  // namespace hpcem
