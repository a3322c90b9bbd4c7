// The prefix-sum companions of one telemetry channel's columns, and the
// single implementation that builds them.
//
// HCAF stores a channel as a time column (its scenario's clock) and a
// value column only; `serve::ArtifactStore` builds these prefix sums at
// ingest, for a compacted shard and for a JSON artifact alike (a JSON
// artifact is encoded as a one-artifact shard first).  So the Neumaier-
// compensated prefixes a windowed query differences are always this
// function's doubles, which is what makes the serving layer's
// byte-identical-response guarantee hold across input formats.
#pragma once

#include <span>
#include <vector>

namespace hpcem::colstore {

/// Prefix sums of one channel's (times, values) columns.
struct PrefixSums {
  /// value_sum[i] = sum of values[0..i); size == values.size() + 1.
  std::vector<double> value_sum;
  /// integral[i] = trapezoidal integral over samples [0..i);
  /// size == values.size() + 1 (unit-seconds, e.g. kW s).
  std::vector<double> integral;
};

/// Accumulate the compensated prefix sums of a time-ordered channel.
/// `times` and `values` are parallel columns of equal size.
/// Deterministic: the same columns always give bit-identical prefixes.
[[nodiscard]] PrefixSums build_prefix_sums(std::span<const double> times,
                                           std::span<const double> values);

}  // namespace hpcem::colstore
