// Time-series container for facility telemetry.
//
// A `TimeSeries` is an append-only sequence of (SimTime, value) samples in
// non-decreasing time order.  It is the interchange type between the
// simulator (which produces cabinet power samples) and the analysis layer
// (which computes means over windows, integrates energy, and detects the
// operational change points the paper's figures show).
//
// The series is *streaming-first*: count, compensated sum, min/max and the
// trapezoidal time integral are maintained online at append time, so
// `mean()`, `integrate()` and the aggregate accessors are O(1) however long
// the campaign ran.  Window queries (`slice`, `mean_over`, `window_bounds`)
// binary-search the time axis, so a windowed summary costs O(log n + k)
// rather than a full scan.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace hpcem {

/// One telemetry sample.
struct Sample {
  SimTime time;
  double value = 0.0;
};

/// Append-only, time-ordered sample sequence with analysis helpers.
class TimeSeries {
 public:
  TimeSeries() = default;
  /// Construct with a unit label used in exports ("kW", "gCO2/kWh", ...).
  explicit TimeSeries(std::string unit) : unit_(std::move(unit)) {}

  /// Append a sample; `time` must be >= the last appended time.  Inline:
  /// this is the telemetry hot path (one call per channel per sim tick).
  void append(SimTime time, double value) {
    if (!samples_.empty()) {
      const Sample& last = samples_.back();
      // Message built only on the failure path: this runs per sample.
      if (time < last.time) {
        throw InvalidArgument(
            "TimeSeries::append: samples must be time-ordered");
      }
      integral_.add(0.5 * (value + last.value) * (time - last.time).sec());
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    } else {
      min_ = value;
      max_ = value;
    }
    sum_.add(value);
    samples_.push_back({time, value});
  }

  /// Stored samples.
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const Sample& operator[](std::size_t i) const {
    return samples_[i];
  }
  [[nodiscard]] std::span<const Sample> samples() const { return samples_; }
  [[nodiscard]] const std::string& unit() const { return unit_; }

  // -- Online aggregates: exact over every appended sample, O(1). ----------

  /// Compensated sum of all appended values.
  [[nodiscard]] double value_sum() const { return sum_.value(); }
  [[nodiscard]] double value_min() const;
  [[nodiscard]] double value_max() const;
  /// Mean of all appended samples; throws if empty.
  [[nodiscard]] double mean() const;
  /// Time-weighted trapezoidal integral interpreting values as a rate
  /// (e.g. W -> J).  Exact over every appended sample.
  [[nodiscard]] double integrate() const { return integral_.value(); }

  [[nodiscard]] SimTime start_time() const;
  [[nodiscard]] SimTime end_time() const;
  [[nodiscard]] Duration span() const;

  // -- Windowed queries: O(log n + k). ---------------------------------------

  /// Half-open index range [first, last) of samples with
  /// start <= time < end (binary search).
  [[nodiscard]] std::pair<std::size_t, std::size_t> window_bounds(
      SimTime start, SimTime end) const;

  /// Values only, in time order.
  [[nodiscard]] std::vector<double> values() const;

  /// Sub-series with start <= t < end.
  [[nodiscard]] TimeSeries slice(SimTime start, SimTime end) const;

  /// Arithmetic mean of sample values in [start, end); throws if empty.
  [[nodiscard]] double mean_over(SimTime start, SimTime end) const;
  /// Full summary statistics of all sample values.
  [[nodiscard]] Summary summary() const;

  /// Piecewise-linear interpolation at `t`; clamps outside the range.
  /// Throws on an empty series.
  [[nodiscard]] double value_at(SimTime t) const;

  /// Resample to a fixed interval by bucket-averaging; buckets with no
  /// samples take the interpolated value at the bucket centre.
  [[nodiscard]] TimeSeries resample(Duration interval) const;

 private:
  std::string unit_;
  std::vector<Sample> samples_;

  // Online accumulators (exact over every appended sample).
  CompensatedSum sum_;
  CompensatedSum integral_;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace hpcem
