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
#include <span>
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

/// Structure-of-arrays fleet state: the per-node silicon factors as one
/// flat column, evaluated against hoisted `NodePowerTerms` in a single
/// vectorizable pass (two multiply-adds per node, no per-node validation
/// or DVFS re-derivation).  `powers_into` reproduces a per-node
/// `node_power` loop bit-for-bit — the expression is the same, only the
/// loop-invariant work is hoisted.
struct FleetState {
  std::vector<double> silicon;

  [[nodiscard]] std::size_t size() const { return silicon.size(); }

  /// Batched per-node power: out[i] = terms.watts(silicon[i]).
  /// `out.size()` must equal `size()`.
  void powers_into(const NodePowerTerms& terms, std::span<double> out) const;

  /// Batched fleet total (plain left-to-right sum, matching an
  /// accumulate over a per-node `node_power` loop).
  [[nodiscard]] Power total_power_w(const NodePowerTerms& terms) const;
};

/// Immutable fleet of nodes with persistent silicon factors.
class NodeFleet {
 public:
  NodeFleet(FleetParams params, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return state_.size(); }
  [[nodiscard]] double silicon_factor(std::size_t node) const;

  /// The structure-of-arrays silicon column (batched evaluation).
  [[nodiscard]] const FleetState& state() const { return state_; }

  /// Fleet statistics of the silicon factor.
  [[nodiscard]] Summary silicon_summary() const;

  /// Mean silicon factor of an arbitrary node subset (what a job sees).
  [[nodiscard]] double mean_silicon(const std::vector<std::size_t>& nodes)
      const;

  /// Per-node power draws for the whole fleet running one activity
  /// (the activity's silicon factor field is overridden per node).
  [[nodiscard]] std::vector<double> node_powers_w(
      const NodePowerParams& node_params, const DynamicPowerProfile& profile,
      NodeActivity activity) const;

  /// Distribution summary of node_powers_w.
  [[nodiscard]] Summary power_summary(const NodePowerParams& node_params,
                                      const DynamicPowerProfile& profile,
                                      const NodeActivity& activity) const;

  /// Fleet-total power for one activity on every node.
  [[nodiscard]] Power total_power(const NodePowerParams& node_params,
                                  const DynamicPowerProfile& profile,
                                  const NodeActivity& activity) const;

 private:
  FleetState state_;
};

}  // namespace hpcem
