#include "serve/artifact_store.hpp"

#include <algorithm>
#include <filesystem>

#include "colstore/columns.hpp"
#include "colstore/hcaf.hpp"
#include "obs/request_context.hpp"
#include "util/file_io.hpp"
#include "util/stats.hpp"

namespace hpcem::serve {

namespace {

/// Build a channel's query indexes from its columns: the prefix sums, the
/// block min/max index, and for a kW channel the midpoint-moment prefix
/// column.
void build_indexes(StoredChannel& ch) {
  colstore::PrefixSums prefix =
      colstore::build_prefix_sums(ch.times, ch.values);
  ch.prefix_value_sum = std::move(prefix.value_sum);
  ch.prefix_integral = std::move(prefix.integral);

  const std::vector<double>& v = ch.values;
  const std::size_t n = v.size();
  constexpr std::size_t kB = StoredChannel::kBlock;
  ch.block_min.reserve((n + kB - 1) / kB);
  ch.block_max.reserve((n + kB - 1) / kB);
  for (std::size_t b = 0; b < n; b += kB) {
    double lo = v[b];
    double hi = v[b];
    for (std::size_t i = b + 1; i < std::min(n, b + kB); ++i) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    ch.block_min.push_back(lo);
    ch.block_max.push_back(hi);
  }

  // whatif re-prices kW channels only.
  if (ch.unit != "kW" || n == 0) return;
  const std::span<const double> t = ch.times;
  ch.prefix_moment.reserve(n + 1);
  ch.prefix_moment.assign(2, 0.0);  // same slots as prefix_integral
  CompensatedSum moment;
  for (std::size_t j = 0; j + 1 < n; ++j) {
    // A_j exactly as colstore::build_prefix_sums accumulates it.
    const double a = 0.5 * (v[j + 1] + v[j]) * (t[j + 1] - t[j]);
    moment.add(a * (0.5 * (t[j] + t[j + 1]) - t.front()));
    ch.prefix_moment.push_back(moment.value());
  }
}

/// Move one shard scenario into the store's shape: channels sorted by name
/// (dense per-scenario ids are lexicographic ranks, independent of the
/// order the producer emitted them in), each viewing its clock and
/// carrying its values and indexes.
StoredScenario stored_scenario(colstore::ShardScenario&& sc,
                               const std::string& label) {
  StoredScenario s;
  s.name = std::move(sc.name);
  s.source = std::move(sc.source);
  s.machine = std::move(sc.machine);
  s.source_file = label;
  s.window_start = sc.window_start;
  s.window_end = sc.window_end;
  s.replicates = sc.replicates;
  s.headline = sc.headline;
  s.change_points = std::move(sc.change_points);
  s.clocks = std::move(sc.clocks);
  s.channels.reserve(sc.channels.size());
  for (colstore::ShardChannel& c : sc.channels) {
    // Every windowed and what-if answer reads the series, so a channel
    // that recorded samples must carry them.
    if (c.aggregate.samples > 0 && !c.has_series()) {
      throw InvalidArgument(
          "ArtifactStore: " + label + ": scenario '" + s.name +
          "' channel '" + c.aggregate.name + "' has " +
          std::to_string(c.aggregate.samples) +
          " samples but no series (re-export with --serve-export)");
    }
    StoredChannel ch;
    ch.name = c.aggregate.name;
    ch.unit = c.aggregate.unit;
    ch.aggregate = std::move(c.aggregate);
    if (c.has_series()) ch.times = s.clocks[c.clock];
    ch.values = std::move(c.values);
    build_indexes(ch);
    s.channels.push_back(std::move(ch));
  }
  std::sort(s.channels.begin(), s.channels.end(),
            [](const StoredChannel& a, const StoredChannel& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 1; i < s.channels.size(); ++i) {
    require(s.channels[i - 1].name != s.channels[i].name,
            "ArtifactStore: scenario '", s.name, "' declares channel '",
            s.channels[i].name, "' twice");
  }
  return s;
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

std::size_t ArtifactStore::ingest_shard(std::string_view bytes,
                                        const std::string& label) {
  std::vector<colstore::ShardScenario> shard =
      colstore::read_shard_bytes(bytes, label);
  std::vector<StoredScenario> staged;
  staged.reserve(shard.size());
  for (colstore::ShardScenario& sc : shard) {
    StoredScenario s = stored_scenario(std::move(sc), label);
    const auto existing = scenarios_.find(s.name);
    if (existing != scenarios_.end()) {
      throw DuplicateScenarioError(
          "duplicate scenario id '" + s.name + "' (first: " +
          existing->second.source_file + ", again: " + label + ")");
    }
    staged.push_back(std::move(s));
  }
  // The shard reader rejects a scenario id repeated inside one shard, so
  // no staged name can clash with another.
  for (StoredScenario& s : staged) scenarios_.emplace(s.name, std::move(s));
  return staged.size();
}

void ArtifactStore::add(const RunArtifact& artifact,
                        const std::string& source_file) {
  (void)ingest_shard(colstore::write_shard_bytes({artifact}), source_file);
}

void ArtifactStore::load_file(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw ParseError("ArtifactStore: cannot open " + path);
  // Decode errors are one line; prefix the file so a directory load says
  // which document was rejected.
  RunArtifact artifact;
  try {
    artifact = RunArtifact::from_json_text(*text);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(path + ": " + e.what());
  }
  add(artifact, path);
}

std::size_t ArtifactStore::load_hcaf_file(const std::string& path) {
  static const obs::NameId kLoad = obs::intern_name("serve.store.load_hcaf");
  const auto bytes = read_text_file(path);
  if (!bytes) throw ParseError("hcaf: cannot open " + path);
  const std::size_t ingested = ingest_shard(*bytes, path);
  obs::record_event(kLoad, static_cast<std::uint64_t>(ingested));
  return ingested;
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
  require(s != nullptr, "ArtifactStore: unknown scenario '", name, "'");
  return *s;
}

const StoredScenario& ArtifactStore::at(std::size_t id) const {
  require(id < scenarios_.size(), "ArtifactStore: scenario id ", id,
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

std::pair<std::size_t, std::size_t> ArtifactStore::window_range(
    const StoredChannel& channel, SimTime start, SimTime end) {
  const auto lo = std::lower_bound(channel.times.begin(), channel.times.end(),
                                   start.sec());
  const auto hi = std::lower_bound(lo, channel.times.end(), end.sec());
  return {static_cast<std::size_t>(lo - channel.times.begin()),
          static_cast<std::size_t>(hi - channel.times.begin())};
}

WindowAggregate ArtifactStore::window_aggregate(const StoredChannel& channel,
                                                SimTime start, SimTime end) {
  static const obs::NameId kAggregate =
      obs::intern_name("serve.store.window_aggregate");
  obs::record_event(kAggregate,
                    static_cast<std::uint64_t>(channel.times.size()));
  require(start <= end,
          "ArtifactStore: window start must not exceed window end");
  const auto [first, last] = window_range(channel, start, end);

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
  // The same left-to-right std::min/std::max fold as a scan of the window,
  // with each whole block's run replaced by its index entry: a block's
  // entry is the value the scan would keep from that block, so the result
  // is bit-identical to the scan (which of a ±0.0 tie wins included).
  // The shard reader rejects NaN, which would break that equivalence.
  constexpr std::size_t kB = StoredChannel::kBlock;
  w.min = channel.values[first];
  w.max = channel.values[first];
  const auto fold = [&w](double lo, double hi) {
    w.min = std::min(w.min, lo);
    w.max = std::max(w.max, hi);
  };
  std::size_t i = first;
  for (const std::size_t head_end = std::min(last, (first + kB - 1) / kB * kB);
       i < head_end; ++i) {
    fold(channel.values[i], channel.values[i]);
  }
  for (; i + kB <= last; i += kB) {
    fold(channel.block_min[i / kB], channel.block_max[i / kB]);
  }
  for (; i < last; ++i) fold(channel.values[i], channel.values[i]);
  return w;
}

}  // namespace hpcem::serve
