// The columnar shape of one telemetry channel, and the single
// implementation that builds it from a sample series.
//
// The HCAF writer runs this code for every shard, whether compacted
// offline or encoded in memory by serve::ArtifactStore for a JSON
// artifact, which is what makes the serving layer's byte-identical-
// response guarantee hold across input formats: the Neumaier-compensated
// prefix sums a query differences are always these doubles, read back
// from a shard.
#pragma once

#include <vector>

#include "telemetry/timeseries.hpp"

namespace hpcem::colstore {

/// Parallel columns of one channel's retained samples plus the
/// prefix-sum companions windowed aggregates difference.
struct ChannelColumns {
  std::vector<double> times;   ///< seconds since epoch, non-decreasing
  std::vector<double> values;
  /// prefix_value_sum[i] = sum of values[0..i); size == values.size() + 1.
  std::vector<double> prefix_value_sum;
  /// prefix_integral[i] = trapezoidal integral over samples [0..i);
  /// size == values.size() + 1 (unit-seconds, e.g. kW s).
  std::vector<double> prefix_integral;

  [[nodiscard]] bool empty() const { return times.empty(); }
};

/// Columnise a time-ordered sample series: split into time/value columns
/// and accumulate the compensated prefix sums.  Deterministic: the same
/// series always produces bit-identical columns.
[[nodiscard]] ChannelColumns build_columns(const std::vector<Sample>& series);

}  // namespace hpcem::colstore
