#include "telemetry/changepoint.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace hpcem {

namespace {

/// Prefix sums enabling O(1) segment cost queries.
struct Prefix {
  std::vector<double> sum;   // sum[i] = xs[0..i)
  std::vector<double> sum2;  // squared

  explicit Prefix(std::span<const double> xs)
      : sum(xs.size() + 1, 0.0), sum2(xs.size() + 1, 0.0) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sum[i + 1] = sum[i] + xs[i];
      sum2[i + 1] = sum2[i] + xs[i] * xs[i];
    }
  }

  /// Sum of squared deviations from the segment mean over [lo, hi).
  [[nodiscard]] double sse(std::size_t lo, std::size_t hi) const {
    const auto n = static_cast<double>(hi - lo);
    if (n <= 0.0) return 0.0;
    const double s = sum[hi] - sum[lo];
    const double s2 = sum2[hi] - sum2[lo];
    return std::max(0.0, s2 - s * s / n);
  }

  [[nodiscard]] double mean(std::size_t lo, std::size_t hi) const {
    return (sum[hi] - sum[lo]) / static_cast<double>(hi - lo);
  }
};

/// Best single split of [lo, hi); nullopt if segments would be too short.
std::optional<StepChange> best_split(const Prefix& p, std::size_t lo,
                                     std::size_t hi,
                                     std::size_t min_segment) {
  if (hi - lo < 2 * min_segment) return std::nullopt;
  const double base_cost = p.sse(lo, hi);
  double best_cost = base_cost;
  std::size_t best_k = 0;
  for (std::size_t k = lo + min_segment; k + min_segment <= hi; ++k) {
    const double cost = p.sse(lo, k) + p.sse(k, hi);
    if (cost < best_cost) {
      best_cost = cost;
      best_k = k;
    }
  }
  if (best_k == 0) return std::nullopt;
  StepChange sc;
  sc.index = best_k;
  sc.mean_before = p.mean(lo, best_k);
  sc.mean_after = p.mean(best_k, hi);
  sc.gain = base_cost - best_cost;
  return sc;
}

}  // namespace

std::optional<StepChange> detect_single_step(std::span<const double> xs,
                                             std::size_t min_segment) {
  require(min_segment >= 1, "detect_single_step: min_segment must be >= 1");
  if (xs.size() < 2 * min_segment) return std::nullopt;
  const Prefix p(xs);
  auto sc = best_split(p, 0, xs.size(), min_segment);
  if (sc && sc->gain <= 0.0) return std::nullopt;
  return sc;
}

std::vector<StepChange> detect_steps(std::span<const double> xs,
                                     std::size_t min_segment,
                                     double penalty) {
  require(penalty >= 0.0, "detect_steps: penalty must be non-negative");
  std::vector<StepChange> found;
  if (xs.size() < 2 * min_segment) return found;

  const Prefix p(xs);
  const auto n = static_cast<double>(xs.size());
  // Noise scale estimated from first differences (robust to the steps
  // themselves, which contribute only a few large diffs).
  std::vector<double> diffs;
  diffs.reserve(xs.size());
  for (std::size_t i = 1; i < xs.size(); ++i) {
    diffs.push_back(std::fabs(xs[i] - xs[i - 1]));
  }
  std::nth_element(
      diffs.begin(),
      diffs.begin() + static_cast<std::ptrdiff_t>(diffs.size() / 2),
      diffs.end());
  const double mad = diffs.empty() ? 0.0 : diffs[diffs.size() / 2];
  // First differences of N(m, s^2) samples are N(0, 2 s^2); their median
  // absolute value is 0.6745 * sqrt(2) * s = 0.954 s, so s^2 = (mad/0.954)^2.
  const double noise_var = mad > 0.0 ? (mad / 0.954) * (mad / 0.954)
                                     : p.sse(0, xs.size()) / n;
  const double min_gain = penalty * noise_var * std::log(n);

  // Binary segmentation: recursively split the segment with the best gain.
  struct SegTask {
    std::size_t lo, hi;
  };
  std::vector<SegTask> stack{{0, xs.size()}};
  while (!stack.empty()) {
    const SegTask seg = stack.back();
    stack.pop_back();
    auto sc = best_split(p, seg.lo, seg.hi, min_segment);
    if (!sc || sc->gain < min_gain) continue;
    found.push_back(*sc);
    stack.push_back({seg.lo, sc->index});
    stack.push_back({sc->index, seg.hi});
  }
  std::sort(found.begin(), found.end(),
            [](const StepChange& a, const StepChange& b) {
              return a.index < b.index;
            });
  return found;
}

std::optional<TimedStepChange> detect_single_step(const TimeSeries& ts,
                                                  std::size_t min_segment) {
  const auto vals = ts.values();
  auto sc = detect_single_step(std::span<const double>(vals), min_segment);
  if (!sc) return std::nullopt;
  TimedStepChange out;
  out.time = ts[sc->index].time;
  out.mean_before = sc->mean_before;
  out.mean_after = sc->mean_after;
  return out;
}

}  // namespace hpcem
