// Node fleet with persistent per-node silicon quality.
//
// AMD's determinism modes exist because silicon varies part-to-part: under
// *power determinism* every part runs to the socket power limit, so
// better-binned parts boost further and draw more; *performance
// determinism* clamps all parts to the reference part, collapsing the
// power spread downwards (paper §4.1, AMD reference [4]).  `NodeFleet`
// materialises that: each node gets a persistent silicon factor drawn from
// a truncated normal fleet distribution, and the fleet can report the
// node-power distribution under each mode — the mechanism behind the
// fleet-level 210 kW saving.
#pragma once

#include <cstddef>
#include <vector>

#include "power/node_model.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hpcem {

/// Fleet silicon-quality distribution parameters.
struct FleetParams {
  std::size_t node_count = 5860;
  /// Standard deviation of the per-node silicon factor (mean 1.0).
  double silicon_sigma = 0.25;
  /// Truncation bounds (physical binning limits).
  double silicon_min = 0.5;
  double silicon_max = 1.5;
};

/// Immutable fleet of nodes with persistent silicon factors.
class NodeFleet {
 public:
  NodeFleet(FleetParams params, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return silicon_.size(); }
  [[nodiscard]] double silicon_factor(std::size_t node) const;

  /// Distribution of per-node power for the whole fleet running one
  /// activity (the activity's silicon factor is replaced per node).
  [[nodiscard]] Summary power_summary(const NodePowerParams& node_params,
                                      const DynamicPowerProfile& profile,
                                      const NodeActivity& activity) const;

  /// Fleet-total power for one activity on every node.
  [[nodiscard]] Power total_power(const NodePowerParams& node_params,
                                  const DynamicPowerProfile& profile,
                                  const NodeActivity& activity) const;

 private:
  std::vector<double> silicon_;
};

}  // namespace hpcem
