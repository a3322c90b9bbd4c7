// Step-change detection for power telemetry.
//
// The paper's Figures 2 and 3 show the cabinet power series stepping down
// when an operational change rolls out.  The analysis layer recovers the
// change point and the before/after means directly from the series, which
// is how a facility operator would verify a deployment took effect.
//
// Two detectors are provided:
//  * `detect_single_step` — exact least-squares segmentation for one step
//    (scan all split points, minimise total squared error), with a
//    minimum-segment-length guard.
//  * `detect_steps` — binary segmentation for multiple steps with a BIC-like
//    penalty to stop splitting noise.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "telemetry/timeseries.hpp"

namespace hpcem {

/// A detected mean shift at `index` (first sample of the new regime).
struct StepChange {
  std::size_t index = 0;
  double mean_before = 0.0;
  double mean_after = 0.0;
  /// Reduction in squared error relative to the no-split model (>= 0).
  double gain = 0.0;

  [[nodiscard]] double delta() const { return mean_after - mean_before; }
};

/// Exact single-step segmentation.  Returns nullopt when no split with at
/// least `min_segment` samples either side improves on the constant model.
[[nodiscard]] std::optional<StepChange> detect_single_step(
    std::span<const double> xs, std::size_t min_segment = 8);

/// Binary segmentation for multiple steps.  `penalty` is the minimum
/// per-split gain expressed as a multiple of the series variance times
/// log(n) (BIC-flavoured); larger values yield fewer change points.
[[nodiscard]] std::vector<StepChange> detect_steps(
    std::span<const double> xs, std::size_t min_segment = 8,
    double penalty = 3.0);

/// Convenience overloads running on a TimeSeries and reporting times.
struct TimedStepChange {
  SimTime time;
  double mean_before = 0.0;
  double mean_after = 0.0;
};
[[nodiscard]] std::optional<TimedStepChange> detect_single_step(
    const TimeSeries& ts, std::size_t min_segment = 8);

}  // namespace hpcem
