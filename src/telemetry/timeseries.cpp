#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hpcem {

double TimeSeries::value_min() const {
  require_state(!samples_.empty(), "TimeSeries::value_min: empty series");
  return min_;
}

double TimeSeries::value_max() const {
  require_state(!samples_.empty(), "TimeSeries::value_max: empty series");
  return max_;
}

SimTime TimeSeries::start_time() const {
  require_state(!samples_.empty(), "TimeSeries::start_time: empty series");
  return samples_.front().time;
}

SimTime TimeSeries::end_time() const {
  require_state(!samples_.empty(), "TimeSeries::end_time: empty series");
  return samples_.back().time;
}

Duration TimeSeries::span() const { return end_time() - start_time(); }

std::pair<std::size_t, std::size_t> TimeSeries::window_bounds(
    SimTime start, SimTime end) const {
  const auto time_less = [](const Sample& s, SimTime when) {
    return s.time < when;
  };
  const auto first = std::lower_bound(samples_.begin(), samples_.end(),
                                      start, time_less);
  const auto last =
      std::lower_bound(first, samples_.end(), end, time_less);
  return {static_cast<std::size_t>(first - samples_.begin()),
          static_cast<std::size_t>(last - samples_.begin())};
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.value);
  return out;
}

TimeSeries TimeSeries::slice(SimTime start, SimTime end) const {
  TimeSeries out(unit_);
  const auto [first, last] = window_bounds(start, end);
  for (std::size_t i = first; i < last; ++i) {
    out.append(samples_[i].time, samples_[i].value);
  }
  return out;
}

double TimeSeries::mean_over(SimTime start, SimTime end) const {
  const auto [first, last] = window_bounds(start, end);
  RunningStats rs;
  for (std::size_t i = first; i < last; ++i) rs.add(samples_[i].value);
  require_state(!rs.empty(), "TimeSeries::mean_over: no samples in window");
  return rs.mean();
}

double TimeSeries::mean() const {
  require_state(!samples_.empty(), "TimeSeries::mean: empty series");
  return sum_.value() / static_cast<double>(samples_.size());
}

Summary TimeSeries::summary() const {
  const auto vals = values();
  return summarize(vals);
}

double TimeSeries::value_at(SimTime t) const {
  require_state(!samples_.empty(), "TimeSeries::value_at: empty series");
  if (t <= samples_.front().time) return samples_.front().value;
  if (t >= samples_.back().time) return samples_.back().value;
  // Binary search for the first sample at or after t.
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, SimTime when) { return s.time < when; });
  if (it->time == t) return it->value;
  const auto prev = it - 1;
  const double dt = (it->time - prev->time).sec();
  if (dt <= 0.0) return it->value;
  const double frac = (t - prev->time).sec() / dt;
  return prev->value + frac * (it->value - prev->value);
}

TimeSeries TimeSeries::resample(Duration interval) const {
  require(interval.sec() > 0.0, "TimeSeries::resample: interval must be > 0");
  TimeSeries out(unit_);
  if (samples_.empty()) return out;
  const SimTime t0 = samples_.front().time;
  const SimTime t1 = samples_.back().time;
  std::size_t idx = 0;
  for (SimTime bucket = t0; bucket <= t1; bucket += interval) {
    const SimTime bucket_end = bucket + interval;
    RunningStats rs;
    while (idx < samples_.size() && samples_[idx].time < bucket_end) {
      rs.add(samples_[idx].value);
      ++idx;
    }
    const SimTime centre = bucket + interval / 2.0;
    out.append(centre, rs.empty() ? value_at(centre) : rs.mean());
  }
  return out;
}

}  // namespace hpcem
