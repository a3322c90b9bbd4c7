#include "serve/artifact_store.hpp"

#include <algorithm>
#include <filesystem>

#include "colstore/columns.hpp"
#include "colstore/hcaf.hpp"
#include "obs/request_context.hpp"
#include "util/file_io.hpp"

namespace hpcem::serve {

namespace {

/// Adopt a set of pre-built columns into a StoredChannel.
void adopt_columns(StoredChannel& ch, colstore::ChannelColumns&& cols) {
  ch.times = std::move(cols.times);
  ch.values = std::move(cols.values);
  ch.prefix_value_sum = std::move(cols.prefix_value_sum);
  ch.prefix_integral = std::move(cols.prefix_integral);
}

StoredChannel columnise(const ChannelAggregate& aggregate) {
  StoredChannel ch;
  ch.name = aggregate.name;
  ch.unit = aggregate.unit;
  ch.aggregate = aggregate;
  // The raw samples live in the columns; keeping a second copy inside the
  // aggregate would double the store's memory for no reader (queries touch
  // only the aggregate's scalar fields).
  ch.aggregate.series.clear();
  ch.aggregate.series.shrink_to_fit();
  // One implementation builds columns for every ingest path (JSON here,
  // HCAF at compaction time) — that shared code is what makes responses
  // bit-identical across formats.
  adopt_columns(ch, colstore::build_columns(aggregate.series));
  return ch;
}

}  // namespace

const StoredChannel* StoredScenario::find_channel(
    const std::string& channel_name) const {
  const auto it = std::lower_bound(
      channels.begin(), channels.end(), channel_name,
      [](const StoredChannel& c, const std::string& n) { return c.name < n; });
  if (it == channels.end() || it->name != channel_name) return nullptr;
  return &*it;
}

void ArtifactStore::insert_scenario(StoredScenario&& s) {
  const auto existing = scenarios_.find(s.name);
  if (existing != scenarios_.end()) {
    throw DuplicateScenarioError(
        "duplicate scenario id '" + s.name + "' (first: " +
        existing->second.source_file + ", again: " + s.source_file + ")");
  }
  // Dense per-scenario channel ids are lexicographic ranks, independent of
  // the order the producer emitted them in.
  std::sort(s.channels.begin(), s.channels.end(),
            [](const StoredChannel& a, const StoredChannel& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 1; i < s.channels.size(); ++i) {
    require(s.channels[i - 1].name != s.channels[i].name,
            "ArtifactStore: scenario '" + s.name +
                "' declares channel '" + s.channels[i].name + "' twice");
  }
  scenarios_.emplace(s.name, std::move(s));
}

void ArtifactStore::add(const RunArtifact& artifact,
                        const std::string& source_file) {
  StoredScenario s;
  s.name = artifact.scenario;
  s.source = artifact.source;
  s.machine = artifact.machine;
  s.source_file = source_file;
  s.window_start = artifact.window_start;
  s.window_end = artifact.window_end;
  s.replicates = artifact.replicates;
  s.headline = artifact.headline;
  s.change_points = artifact.change_points;
  s.channels.reserve(artifact.channels.size());
  for (const ChannelAggregate& c : artifact.channels) {
    s.channels.push_back(columnise(c));
  }
  insert_scenario(std::move(s));
  ++memory_ingests_;
}

void ArtifactStore::load_file(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw ParseError("ArtifactStore: cannot open " + path);
  add(RunArtifact::from_json_text(*text), path);
  // add() counted a memory ingest; this one came from a JSON file.
  --memory_ingests_;
  ++json_ingests_;
}

std::size_t ArtifactStore::load_hcaf_file(const std::string& path) {
  static const obs::NameId kLoad = obs::intern_name("serve.store.load_hcaf");
  std::vector<colstore::ShardScenario> scenarios =
      colstore::read_shard_file(path);
  obs::record_event(kLoad, static_cast<std::uint64_t>(scenarios.size()));
  for (colstore::ShardScenario& sc : scenarios) {
    StoredScenario s;
    s.name = sc.name;
    s.source = std::move(sc.source);
    s.machine = std::move(sc.machine);
    s.source_file = path;
    s.window_start = sc.window_start;
    s.window_end = sc.window_end;
    s.replicates = sc.replicates;
    s.headline = sc.headline;
    s.change_points = std::move(sc.change_points);
    s.channels.reserve(sc.channels.size());
    for (colstore::ShardChannel& c : sc.channels) {
      StoredChannel ch;
      ch.name = c.aggregate.name;
      ch.unit = c.aggregate.unit;
      ch.aggregate = std::move(c.aggregate);
      // The shard stores the columns the JSON path would compute —
      // ingest moves them instead of re-deriving anything.
      adopt_columns(ch, std::move(c.columns));
      s.channels.push_back(std::move(ch));
    }
    insert_scenario(std::move(s));
  }
  ++hcaf_ingests_;
  return scenarios.size();
}

std::string ArtifactStore::format() const {
  const int kinds = (memory_ingests_ > 0 ? 1 : 0) +
                    (json_ingests_ > 0 ? 1 : 0) + (hcaf_ingests_ > 0 ? 1 : 0);
  if (kinds > 1) return "mixed";
  if (hcaf_ingests_ > 0) return "hcaf";
  if (json_ingests_ > 0) return "json";
  if (memory_ingests_ > 0) return "memory";
  return "empty";
}

std::size_t ArtifactStore::load_directory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::directory_iterator it(dir, ec);
  if (ec) {
    throw ParseError("ArtifactStore: cannot read directory " + dir + ": " +
                     ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".artifact.json";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0) {
      paths.push_back(entry.path().string());
    }
  }
  // Directory iteration order is filesystem-dependent; sorted paths make
  // ingest (and therefore any ingest-order error) reproducible.
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) load_file(p);
  return paths.size();
}

std::vector<std::string> ArtifactStore::scenario_names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) names.push_back(name);
  return names;
}

const StoredScenario* ArtifactStore::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

const StoredScenario& ArtifactStore::at(const std::string& name) const {
  // Flight-recorder breadcrumb: which scenario lookups the current request
  // performed (the store tier of the request trace).
  static const obs::NameId kLookup = obs::intern_name("serve.store.at");
  obs::record_event(kLookup);
  const StoredScenario* s = find(name);
  require(s != nullptr, "ArtifactStore: unknown scenario '" + name + "'");
  return *s;
}

const StoredScenario& ArtifactStore::at(std::size_t id) const {
  require(id < scenarios_.size(),
          "ArtifactStore: scenario id " + std::to_string(id) +
              " out of range");
  auto it = scenarios_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(id));
  return it->second;
}

std::size_t ArtifactStore::total_series_samples() const {
  std::size_t n = 0;
  for (const auto& [name, scenario] : scenarios_) {
    for (const StoredChannel& c : scenario.channels) n += c.times.size();
  }
  return n;
}

WindowAggregate ArtifactStore::window_aggregate(const StoredChannel& channel,
                                                SimTime start, SimTime end) {
  static const obs::NameId kAggregate =
      obs::intern_name("serve.store.window_aggregate");
  obs::record_event(kAggregate,
                    static_cast<std::uint64_t>(channel.times.size()));
  require_state(channel.has_series(),
                "ArtifactStore: channel '" + channel.name +
                    "' carries no stored series (aggregate-only artifact)");
  require(start <= end,
          "ArtifactStore: window start must not exceed window end");
  const auto lo = std::lower_bound(channel.times.begin(), channel.times.end(),
                                   start.sec());
  const auto hi = std::lower_bound(lo, channel.times.end(), end.sec());
  const auto first = static_cast<std::size_t>(lo - channel.times.begin());
  const auto last = static_cast<std::size_t>(hi - channel.times.begin());

  WindowAggregate w;
  w.samples = last - first;
  if (w.samples == 0) return w;

  w.mean = (channel.prefix_value_sum[last] - channel.prefix_value_sum[first]) /
           static_cast<double>(w.samples);
  // prefix_integral[k] covers the intervals up to sample k-1, so the
  // in-window intervals (first..last-1) are [last] minus [first + 1] —
  // subtracting [first] would also count the interval leading *into* the
  // window's first sample.
  w.integral =
      channel.prefix_integral[last] - channel.prefix_integral[first + 1];
  w.first_time = SimTime(channel.times[first]);
  w.last_time = SimTime(channel.times[last - 1]);
  w.min = channel.values[first];
  w.max = channel.values[first];
  for (std::size_t i = first + 1; i < last; ++i) {
    w.min = std::min(w.min, channel.values[i]);
    w.max = std::max(w.max, channel.values[i]);
  }
  return w;
}

}  // namespace hpcem::serve
