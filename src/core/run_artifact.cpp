#include "core/run_artifact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "obs/metrics_export.hpp"
#include "obs/registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace hpcem {

namespace {

constexpr const char* kSchemaName = "hpcem.run_artifact";

// ---------------------------------------------------------------------------
// Encode: the document goes straight through a JsonWriter.

void write_number(JsonWriter& w, std::string_view key, double v) {
  w.key(key);
  w.number(v);
}

void write_string(JsonWriter& w, std::string_view key, std::string_view v) {
  w.key(key);
  w.string(v);
}

void write_time(JsonWriter& w, std::string_view key, SimTime t) {
  w.key(key);
  w.begin_object();
  write_number(w, "epoch_s", t.sec());
  write_string(w, "iso", iso_date_time(t));
  w.end_object();
}

/// A clock some channel's "times" array has been written for, and that
/// array's text, for the channels after it that share the clock.
struct WrittenClock {
  const std::vector<Sample>* series;
  JsonWriter::Copy text;
};

void write_times(JsonWriter& w, const std::vector<Sample>& series,
                 std::vector<WrittenClock>& clocks) {
  w.key("times");
  for (const WrittenClock& clock : clocks) {
    // Bit-equal times format to equal text at the same depth.
    if (same_times(*clock.series, series)) {
      w.copied_value(clock.text);
      return;
    }
  }
  w.begin_copy();
  w.begin_array();
  for (const Sample& s : series) w.number(s.time.sec());
  w.end_array();
  clocks.push_back({&series, w.end_copy()});
}

void write_channel(JsonWriter& w, const ChannelAggregate& c,
                   std::vector<WrittenClock>& clocks) {
  w.begin_object();
  write_string(w, "name", c.name);
  write_string(w, "unit", c.unit);
  write_number(w, "samples", static_cast<double>(c.samples));
  write_number(w, "mean", c.mean);
  write_number(w, "min", c.min);
  write_number(w, "max", c.max);
  write_number(w, "integral", c.integral);
  write_time(w, "first_time", c.first_time);
  write_time(w, "last_time", c.last_time);
  // Parallel times/values arrays, written only when the producer opted
  // into carrying the raw samples.
  if (!c.series.empty()) {
    w.key("series");
    w.begin_object();
    write_times(w, c.series, clocks);
    w.key("values");
    w.begin_array();
    for (const Sample& s : c.series) w.number(s.value);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

void write_change_point(JsonWriter& w, const ArtifactChangePoint& cp) {
  w.begin_object();
  write_time(w, "at", cp.at);
  write_number(w, "mean_before_kw", cp.mean_before_kw.kw());
  write_number(w, "mean_after_kw", cp.mean_after_kw.kw());
  w.key("detected");
  w.boolean(cp.detected);
  w.end_object();
}

/// The one document writer: to_json_text runs it into a string,
/// write_artifact_files into the artifact's file.
void write_document(JsonWriter& w, const RunArtifact& a) {
  w.begin_object();
  write_string(w, "schema", kSchemaName);
  write_number(w, "schema_version", RunArtifact::kSchemaVersion);
  write_string(w, "scenario", a.scenario);
  write_string(w, "source", a.source);
  write_string(w, "machine", a.machine);
  write_time(w, "window_start", a.window_start);
  write_time(w, "window_end", a.window_end);
  write_number(w, "replicates", static_cast<double>(a.replicates));

  w.key("headline");
  w.begin_object();
  write_number(w, "mean_kw", a.headline.mean_kw.kw());
  write_number(w, "mean_before_kw", a.headline.mean_before_kw.kw());
  write_number(w, "mean_after_kw", a.headline.mean_after_kw.kw());
  write_number(w, "mean_utilisation", a.headline.mean_utilisation);
  write_number(w, "window_energy_kwh", a.headline.window_energy_kwh.kwh());
  write_number(w, "completed_jobs", a.headline.completed_jobs);
  w.end_object();

  w.key("change_points");
  w.begin_array();
  for (const auto& cp : a.change_points) write_change_point(w, cp);
  w.end_array();

  w.key("channels");
  w.begin_array();
  std::vector<WrittenClock> clocks;
  for (const auto& c : a.channels) write_channel(w, c, clocks);
  w.end_array();
  // The obs member is written only when metrics were collected, so a run
  // with collection off serializes without it.
  if (!a.obs.is_null()) {
    w.key("obs");
    w.value(a.obs);
  }
  w.end_object();
}

// ---------------------------------------------------------------------------
// Decode.  The reader pulls the document once.  Each series' times/values
// numbers go straight into the channel's sample vector; every other member
// is small and is kept as a DOM subtree.  Syntax errors throw as they are
// met.  The schema rules run only after the whole document has parsed, in
// a fixed member order, so members may come in any order, the last of a
// duplicated member wins and unknown members are ignored.

/// What decode needs to know of one streamed "times" or "values" member.
/// Elements are counted; numbers are stored up to the first element that
/// is not a number, since decode rejects the series at that index.
struct Column {
  bool is_array = false;
  std::size_t size = 0;
  std::size_t first_non_number = std::string::npos;
};

/// A channel's "series" member as read.  Both columns fill one sample
/// vector, times into .time and values into .value, in whichever order
/// they come; decode checks the columns and trims the vector to their
/// common length.  A value that is not an object reads as an object
/// without members, as JsonValue::at sees it.
struct SeriesText {
  std::optional<Column> times;
  std::optional<Column> values;
  std::vector<Sample> samples;
};

/// One element of "channels": every member but "series" as DOM.
struct ChannelText {
  JsonValue fields;
  std::optional<SeriesText> series;
};

template <typename Store>
Column read_column(JsonReader& r, std::vector<Sample>& samples, Store store) {
  Column col;
  if (r.peek() != JsonValue::Type::kArray) {
    (void)r.value();
    return col;
  }
  col.is_array = true;
  r.begin_array();
  while (r.next_element()) {
    if (col.first_non_number == std::string::npos &&
        r.peek() == JsonValue::Type::kNumber) {
      if (col.size == samples.size()) samples.emplace_back();
      store(samples[col.size], r.number());
    } else {
      if (col.first_non_number == std::string::npos) {
        col.first_non_number = col.size;
      }
      (void)r.value();
    }
    ++col.size;
  }
  return col;
}

/// The last "times" array that parsed wholly as numbers: its text and
/// its times.  A later array with the same bytes parses to the same times.
struct ReadClock {
  std::string_view text;
  std::vector<SimTime> times;
};

Column read_times(JsonReader& r, std::vector<Sample>& samples,
                  ReadClock& clock) {
  if (r.skip_value_text(clock.text)) {
    const std::size_t n = clock.times.size();
    if (samples.size() < n) samples.resize(n);
    for (std::size_t i = 0; i < n; ++i) samples[i].time = clock.times[i];
    return Column{.is_array = true, .size = n};
  }
  const std::size_t start = r.value_start();
  const Column col =
      read_column(r, samples, [](Sample& x, double t) { x.time = SimTime(t); });
  if (col.is_array && col.first_non_number == std::string::npos) {
    clock.text = r.text_from(start);
    clock.times.resize(col.size);
    for (std::size_t i = 0; i < col.size; ++i) {
      clock.times[i] = samples[i].time;
    }
  }
  return col;
}

SeriesText read_series(JsonReader& r, std::size_t reserve, ReadClock& clock) {
  SeriesText s;
  if (r.peek() != JsonValue::Type::kObject) {
    (void)r.value();
    return s;
  }
  s.samples.reserve(reserve);
  r.begin_object();
  std::string key;
  while (r.next_member(key)) {
    if (key == "times") {
      s.times = read_times(r, s.samples, clock);
    } else if (key == "values") {
      s.values = read_column(r, s.samples,
                             [](Sample& x, double v) { x.value = v; });
    } else {
      (void)r.value();
    }
  }
  return s;
}

/// Samples to reserve for a channel's series: its "samples" member when
/// that has already been read and is an integer >= 0, capped by what is
/// left of `budget`, which shrinks by the amount reserved.  Each sample
/// takes at least 4 bytes of text across the two columns, so a budget of
/// text size / 4 bounds what a lying "samples" can allocate.
std::size_t take_reserve(const JsonValue& fields, std::size_t& budget) {
  const JsonValue* count = fields.get("samples");
  if (count == nullptr || !count->is_number()) return 0;
  const double x = count->as_number();
  if (!(x >= 0.0 && std::isfinite(x) && x == std::floor(x))) return 0;
  const std::size_t n = x < static_cast<double>(budget)
                            ? static_cast<std::size_t>(x)
                            : budget;
  budget -= n;
  return n;
}

ChannelText read_channel(JsonReader& r, std::size_t& reserve_budget,
                         ReadClock& clock) {
  ChannelText c;
  if (r.peek() != JsonValue::Type::kObject) {
    c.fields = r.value();
    return c;
  }
  c.fields = JsonValue::object();
  r.begin_object();
  std::string key;
  while (r.next_member(key)) {
    if (key == "series") {
      c.series =
          read_series(r, take_reserve(c.fields, reserve_budget), clock);
    } else {
      c.fields.set(std::move(key), r.value());
    }
  }
  return c;
}

/// A count member: a non-negative integer no larger than 2^53, the range
/// in which every integer is an exact double.
std::uint64_t count_from_json(const JsonValue& v, const std::string& member,
                              const std::string& label) {
  const double x = v.at(member).as_number();
  if (!(x >= 0.0 && x <= 0x1p53 && x == std::floor(x))) {
    throw ParseError("RunArtifact: " + label +
                     " must be a non-negative integer <= 2^53, got " +
                     json_number(x));
  }
  return static_cast<std::uint64_t>(x);
}

SimTime time_from_json(const JsonValue& v) {
  return SimTime(v.at("epoch_s").as_number());
}

const Column& column_of(const std::optional<Column>& col,
                        const std::string& key) {
  // The same texts JsonValue::at and JsonValue::as_array throw.
  if (!col) throw ParseError("JsonValue: missing member: " + key);
  if (!col->is_array) throw ParseError("JsonValue: not an array");
  return *col;
}

std::vector<Sample> series_from_text(SeriesText& s,
                                     const std::string& channel) {
  const Column& times = column_of(s.times, "times");
  const Column& values = column_of(s.values, "values");
  require(times.size == values.size, "RunArtifact: channel '", channel,
          "' series times/values length mismatch");
  for (std::size_t i = 0; i < times.size; ++i) {
    if (i == times.first_non_number) {
      throw ParseError("JsonValue: not a number");
    }
    if (i > 0 && s.samples[i].time < s.samples[i - 1].time) {
      throw InvalidArgument("RunArtifact: channel '" + channel +
                            "' series times must be non-decreasing");
    }
    if (i == values.first_non_number) {
      throw ParseError("JsonValue: not a number");
    }
  }
  s.samples.resize(times.size);
  return std::move(s.samples);
}

ChannelAggregate channel_from_text(ChannelText& text) {
  const JsonValue& v = text.fields;
  ChannelAggregate c;
  c.name = v.at("name").as_string();
  c.unit = v.at("unit").as_string();
  c.samples = count_from_json(v, "samples", "channel '" + c.name + "' samples");
  c.mean = v.at("mean").as_number();
  c.min = v.at("min").as_number();
  c.max = v.at("max").as_number();
  c.integral = v.at("integral").as_number();
  c.first_time = time_from_json(v.at("first_time"));
  c.last_time = time_from_json(v.at("last_time"));
  // Optional: absent in aggregate-only channels.
  if (text.series) c.series = series_from_text(*text.series, c.name);
  return c;
}

ArtifactChangePoint change_point_from_json(const JsonValue& v) {
  ArtifactChangePoint cp;
  cp.at = time_from_json(v.at("at"));
  cp.mean_before_kw = PowerKw{v.at("mean_before_kw").as_number()};
  cp.mean_after_kw = PowerKw{v.at("mean_after_kw").as_number()};
  cp.detected = v.at("detected").as_bool();
  return cp;
}

/// The schema rules over a read document.  `v` holds every top-level
/// member; a streamed "channels" array is an empty placeholder there and
/// its elements are `channels`.
RunArtifact decode(const JsonValue& v, std::vector<ChannelText>& channels) {
  require(v.at("schema").as_string() == kSchemaName,
          "RunArtifact: not a run-artifact document");
  const std::uint64_t version =
      count_from_json(v, "schema_version", "schema_version");
  require(version >= RunArtifact::kSchemaVersion,
          "RunArtifact: schema version ", version,
          " predates v3; re-export with --serve-export");
  require(version == RunArtifact::kSchemaVersion,
          "RunArtifact: unsupported schema version ", version);

  RunArtifact a;
  a.scenario = v.at("scenario").as_string();
  a.source = v.at("source").as_string();
  a.machine = v.at("machine").as_string();
  a.window_start = time_from_json(v.at("window_start"));
  a.window_end = time_from_json(v.at("window_end"));
  a.replicates = count_from_json(v, "replicates", "replicates");

  const JsonValue& h = v.at("headline");
  a.headline.mean_kw = PowerKw{h.at("mean_kw").as_number()};
  a.headline.mean_before_kw = PowerKw{h.at("mean_before_kw").as_number()};
  a.headline.mean_after_kw = PowerKw{h.at("mean_after_kw").as_number()};
  a.headline.mean_utilisation = h.at("mean_utilisation").as_number();
  a.headline.window_energy_kwh =
      EnergyKwh{h.at("window_energy_kwh").as_number()};
  a.headline.completed_jobs = h.at("completed_jobs").as_number();

  for (const auto& cp : v.at("change_points").as_array()) {
    a.change_points.push_back(change_point_from_json(cp));
  }
  (void)v.at("channels").as_array();
  a.channels.reserve(channels.size());
  for (ChannelText& c : channels) {
    a.channels.push_back(channel_from_text(c));
  }
  // Optional: absent in runs that did not collect metrics.
  if (const JsonValue* o = v.get("obs")) {
    (void)obs::metrics_from_json(*o);  // validate before carrying it along
    a.obs = *o;
  }
  return a;
}

}  // namespace

std::string RunArtifact::to_json_text() const {
  JsonWriter w(2);
  // Series samples are nearly all of a large document: two indented
  // numbers of up to ~30 bytes each.
  std::size_t samples = 0;
  for (const auto& c : channels) samples += c.series.size();
  w.reserve(4096 + 64 * samples);
  write_document(w, *this);
  return std::move(w).finish();
}

std::string RunArtifact::to_csv() const {
  CsvWriter w({"channel", "unit", "samples", "mean", "min", "max",
               "integral", "first_time", "last_time"});
  for (const auto& c : channels) {
    w.add_row({c.name, c.unit, std::to_string(c.samples),
               json_number(c.mean), json_number(c.min), json_number(c.max),
               json_number(c.integral), iso_date_time(c.first_time),
               iso_date_time(c.last_time)});
  }
  return w.str();
}

RunArtifact RunArtifact::from_json_text(std::string_view text) {
  JsonReader r(text);
  JsonValue fields;
  std::vector<ChannelText> channels;
  std::size_t reserve_budget = text.size() / 4;
  ReadClock clock;
  if (r.peek() == JsonValue::Type::kObject) {
    fields = JsonValue::object();
    r.begin_object();
    std::string key;
    while (r.next_member(key)) {
      if (key == "channels" && r.peek() == JsonValue::Type::kArray) {
        channels.clear();
        r.begin_array();
        while (r.next_element()) {
          channels.push_back(read_channel(r, reserve_budget, clock));
        }
        fields.set(std::move(key), JsonValue::array());
      } else {
        fields.set(std::move(key), r.value());
      }
    }
  } else {
    fields = r.value();
  }
  r.finish();
  return decode(fields, channels);
}

ChannelAggregate aggregate_channel(const std::string& name,
                                   const TimeSeries& series,
                                   bool include_series) {
  ChannelAggregate c;
  c.name = name;
  c.unit = series.unit();
  c.samples = series.size();
  if (c.samples > 0) {
    c.mean = series.mean();
    c.min = series.value_min();
    c.max = series.value_max();
    c.integral = series.integrate();
    c.first_time = series.start_time();
    c.last_time = series.end_time();
  }
  if (include_series) {
    const auto samples = series.samples();
    c.series.assign(samples.begin(), samples.end());
  }
  return c;
}

std::vector<ChannelAggregate> aggregate_channels(const Recorder& recorder,
                                                 bool include_series) {
  std::vector<ChannelAggregate> out;
  const auto names = recorder.channel_names();
  out.reserve(names.size());
  for (const auto& name : names) {
    out.push_back(
        aggregate_channel(name, recorder.channel(name), include_series));
  }
  return out;
}

JsonValue collected_obs_metrics() {
  if (!obs::enabled()) return JsonValue();
  return obs::metrics_json(obs::metrics_snapshot());
}

std::string machine_label(MachineModel machine) {
  switch (machine) {
    case MachineModel::kArcher2: return "archer2";
    case MachineModel::kTestbed: return "testbed";
    case MachineModel::kMicro: return "micro";
  }
  return "unknown";
}

RunArtifact make_run_artifact(const FacilitySimulator& sim,
                              const ScenarioSpec& spec,
                              const TimelineResult& result) {
  RunArtifact a;
  a.scenario = spec.name;
  a.source = "simulation";
  a.machine = machine_label(spec.machine);
  a.window_start = result.window_start;
  a.window_end = result.window_end;
  a.replicates = 1;

  a.headline = result.headline;

  if (result.change_time) {
    a.change_points.push_back({*result.change_time,
                               result.headline.mean_before_kw,
                               result.headline.mean_after_kw,
                               /*detected=*/false});
  }
  if (result.detected) {
    a.change_points.push_back({result.detected->time,
                               PowerKw{result.detected->mean_before},
                               PowerKw{result.detected->mean_after},
                               /*detected=*/true});
  }
  a.channels = aggregate_channels(sim.telemetry());
  a.obs = collected_obs_metrics();
  return a;
}

RunArtifact make_run_artifact(const ScenarioOutcome& outcome,
                              const ScenarioSpec& spec) {
  RunArtifact a;
  a.scenario = outcome.name;
  a.source = "campaign";
  a.machine = machine_label(spec.machine);
  a.window_start = spec.window_start;
  a.window_end = spec.window_end;
  a.replicates = outcome.replicates;

  a.headline.mean_kw = PowerKw{outcome.mean_kw.mean()};
  a.headline.mean_before_kw = PowerKw{outcome.mean_before_kw.mean()};
  a.headline.mean_after_kw = PowerKw{outcome.mean_after_kw.mean()};
  a.headline.mean_utilisation = outcome.mean_utilisation.mean();
  a.headline.window_energy_kwh = EnergyKwh{outcome.window_energy_kwh.mean()};
  a.headline.completed_jobs = outcome.completed_jobs.mean();

  if (const auto split = spec.first_change_in_window()) {
    a.change_points.push_back({*split, a.headline.mean_before_kw,
                               a.headline.mean_after_kw,
                               /*detected=*/false});
  }
  a.obs = collected_obs_metrics();
  return a;
}

std::vector<RunArtifact> make_campaign_artifacts(
    const CampaignResult& result, const std::vector<ScenarioSpec>& specs) {
  require(result.scenarios.size() == specs.size(),
          "make_campaign_artifacts: result/spec count mismatch");
  std::vector<RunArtifact> out;
  out.reserve(result.scenarios.size());
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    out.push_back(make_run_artifact(result.scenarios[i], specs[i]));
  }
  return out;
}

bool same_times(const std::vector<Sample>& a, const std::vector<Sample>& b) {
  return std::ranges::equal(a, b, [](const Sample& x, const Sample& y) {
    return std::bit_cast<std::uint64_t>(x.time.sec()) ==
           std::bit_cast<std::uint64_t>(y.time.sec());
  });
}

std::string write_artifact_files(const RunArtifact& artifact,
                                 const std::string& basename) {
  const std::string json_path = basename + ".artifact.json";
  const std::string part_path = json_path + ".part";
  const auto cannot_write = [](const std::string& path) {
    return ParseError("write_artifact_files: cannot write " + path);
  };
  // The document streams through the writer's fixed buffer into a side
  // file that replaces the artifact only once whole, so an encode that
  // throws (a non-finite number) leaves no partial artifact behind.
  std::ofstream out(part_path, std::ios::binary);
  if (!out) throw cannot_write(json_path);
  std::error_code ec;
  try {
    JsonWriter w(2, out);
    write_document(w, artifact);
    (void)std::move(w).finish();
    out.close();
  } catch (...) {
    std::filesystem::remove(part_path, ec);
    throw;
  }
  if (out) std::filesystem::rename(part_path, json_path, ec);
  if (!out || ec) {
    std::filesystem::remove(part_path, ec);
    throw cannot_write(json_path);
  }
  if (!artifact.channels.empty()) {
    const std::string csv_path = basename + ".aggregates.csv";
    std::ofstream csv(csv_path, std::ios::binary);
    csv << artifact.to_csv();
    if (!csv) throw cannot_write(csv_path);
  }
  return json_path;
}

}  // namespace hpcem
