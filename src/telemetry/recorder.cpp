#include "telemetry/recorder.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

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
    require(channels_[it->second].series.unit() == unit,
            "Recorder::declare: unit mismatch for existing channel ", name);
    return ChannelId(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(Channel{name, TimeSeries(unit)});
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
  return channels_[id.index()].series;
}

const std::string& Recorder::name(ChannelId id) const {
  require_state(id.index() < channels_.size(),
                "Recorder::name: invalid channel id");
  return channels_[id.index()].name;
}

const TimeSeries& Recorder::channel(const std::string& name) const {
  auto it = index_.find(name);
  require_state(it != index_.end(), "Recorder::channel: no such channel: ",
                name);
  return channels_[it->second].series;
}

std::vector<std::string> Recorder::channel_names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const auto& [name, _] : index_) names.push_back(name);
  return names;
}

std::uint64_t Recorder::total_appended() const {
  std::uint64_t total = 0;
  for (const auto& c : channels_) total += c.series.size();
  return total;
}

}  // namespace hpcem
