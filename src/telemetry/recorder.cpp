#include "telemetry/recorder.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace hpcem {

namespace detail {

void note_recorder_ingest(std::uint64_t n) {
  static const obs::Counter samples("telemetry.recorder.samples", "samples");
  samples.add(n);
}

}  // namespace detail

ChannelId Recorder::declare(const std::string& name,
                            const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    require(channels_[it->second]->series.unit() == unit,
            "Recorder::channel: unit mismatch for existing channel ", name);
    return ChannelId(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(
      std::make_unique<Channel>(Channel{name, TimeSeries(unit)}));
  if (max_raw_ != 0) channels_.back()->series.set_max_raw_samples(max_raw_);
  index_.emplace(name, idx);
  return ChannelId(idx);
}

std::optional<ChannelId> Recorder::find(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return ChannelId(it->second);
}

ChannelId Recorder::id(const std::string& name) const {
  const auto found = find(name);
  require_state(found.has_value(), "Recorder::id: no such channel: ", name);
  return *found;
}

const TimeSeries& Recorder::series(ChannelId id) const {
  require_state(id.index() < channels_.size(),
                "Recorder::series: invalid channel id");
  return channels_[id.index()]->series;
}

TimeSeries& Recorder::series(ChannelId id) {
  require_state(id.index() < channels_.size(),
                "Recorder::series: invalid channel id");
  return channels_[id.index()]->series;
}

const std::string& Recorder::name(ChannelId id) const {
  require_state(id.index() < channels_.size(),
                "Recorder::name: invalid channel id");
  return channels_[id.index()]->name;
}

void Recorder::set_max_raw_samples(std::size_t cap) {
  max_raw_ = cap;
  for (auto& ch : channels_) ch->series.set_max_raw_samples(cap);
}

TimeSeries& Recorder::channel(const std::string& name,
                              const std::string& unit) {
  return channels_[declare(name, unit).index()]->series;
}

const TimeSeries& Recorder::channel(const std::string& name) const {
  auto it = index_.find(name);
  require_state(it != index_.end(), "Recorder::channel: no such channel: ",
                name);
  return channels_[it->second]->series;
}

bool Recorder::has_channel(const std::string& name) const {
  return index_.contains(name);
}

std::vector<std::string> Recorder::channel_names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const auto& [name, _] : index_) names.push_back(name);
  return names;
}

void Recorder::record(const std::string& name, SimTime t, double value) {
  auto it = index_.find(name);
  require_state(it != index_.end(), "Recorder::record: no such channel: ",
                name);
  channels_[it->second]->series.append(t, value);
}

std::uint64_t Recorder::total_appended() const {
  std::uint64_t total = 0;
  for (const auto& c : channels_) total += c->series.total_appended();
  return total;
}

std::string Recorder::to_csv() const {
  CsvWriter w({"time", "channel", "unit", "value"});
  for (const auto& [name, idx] : index_) {
    const TimeSeries& series = channels_[idx]->series;
    for (const auto& s : series.samples()) {
      w.add_row({iso_date_time(s.time), name, series.unit(),
                 TextTable::num(s.value, 6)});
    }
  }
  return w.str();
}

RollingWindow::RollingWindow(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "RollingWindow: capacity must be >= 1");
}

void RollingWindow::add(double x) {
  buf_.push_back(x);
  sum_.add(x);
  if (buf_.size() > capacity_) {
    sum_.subtract(buf_.front());
    buf_.pop_front();
  }
}

double RollingWindow::mean() const {
  require_state(!buf_.empty(), "RollingWindow::mean: empty window");
  return sum_.value() / static_cast<double>(buf_.size());
}

double RollingWindow::min() const {
  require_state(!buf_.empty(), "RollingWindow::min: empty window");
  return *std::min_element(buf_.begin(), buf_.end());
}

double RollingWindow::max() const {
  require_state(!buf_.empty(), "RollingWindow::max: empty window");
  return *std::max_element(buf_.begin(), buf_.end());
}

}  // namespace hpcem
