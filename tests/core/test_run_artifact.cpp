// Unit tests for the shared run-artifact layer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

#include "core/assembly.hpp"
#include "core/report.hpp"
#include "core/run_artifact.hpp"
#include "core/scenario_library.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/registry.hpp"
#include "json_surgery.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"

namespace hpcem {
namespace {

/// Simulate, analyse and package one assembled spec.
RunArtifact simulated_artifact(const FacilityAssembly& assembly) {
  const auto sim = assembly.run_simulator();
  return make_run_artifact(*sim, assembly.spec(),
                           analyze_timeline(*sim, assembly.spec()));
}

RunArtifact sample_artifact() {
  RunArtifact a;
  a.scenario = "test-scenario";
  a.source = "simulation";
  a.machine = "micro";
  a.window_start = sim_time_from_date({2022, 4, 1});
  a.window_end = sim_time_from_date({2022, 6, 1});
  a.replicates = 3;
  a.headline.mean_kw = PowerKw{3140.5};
  a.headline.mean_before_kw = PowerKw{3220.0};
  a.headline.mean_after_kw = PowerKw{3010.0};
  a.headline.mean_utilisation = 0.91;
  a.headline.window_energy_kwh = EnergyKwh{4.6e6};
  a.headline.completed_jobs = 78934.0;
  a.change_points.push_back(
      {sim_time_from_date({2022, 5, 9}), PowerKw{3220.0}, PowerKw{3010.0},
       false});
  a.change_points.push_back(
      {sim_time_from_date({2022, 5, 9}), PowerKw{3219.4}, PowerKw{3010.2},
       true});
  ChannelAggregate c;
  c.name = "cabinet_kw";
  c.unit = "kW";
  c.samples = 4128;
  c.mean = 3172.46;
  c.min = 1653.53;
  c.max = 3477.20;
  c.integral = 2.35e10;
  c.first_time = sim_time_from_date({2022, 3, 7});
  c.last_time = sim_time_from_date({2022, 5, 31});
  a.channels.push_back(c);
  return a;
}

/// The artifact's document with one top-level member replaced: a DOM
/// round trip (parse -> set -> dump) around the codec under test.
std::string with_member(const RunArtifact& a, const std::string& key,
                        JsonValue value) {
  JsonValue doc = JsonValue::parse(a.to_json_text());
  doc.set(key, std::move(value));
  return doc.dump(2);
}

TEST(RunArtifact, JsonRoundTripIsLossless) {
  const RunArtifact a = sample_artifact();
  const RunArtifact b = RunArtifact::from_json_text(a.to_json_text());
  EXPECT_EQ(b.scenario, a.scenario);
  EXPECT_EQ(b.source, a.source);
  EXPECT_EQ(b.machine, a.machine);
  EXPECT_EQ(b.window_start, a.window_start);
  EXPECT_EQ(b.window_end, a.window_end);
  EXPECT_EQ(b.replicates, a.replicates);
  EXPECT_EQ(b.headline.mean_kw, a.headline.mean_kw);
  EXPECT_EQ(b.headline.window_energy_kwh, a.headline.window_energy_kwh);
  ASSERT_EQ(b.change_points.size(), 2u);
  EXPECT_EQ(b.change_points[0].at, a.change_points[0].at);
  EXPECT_FALSE(b.change_points[0].detected);
  EXPECT_TRUE(b.change_points[1].detected);
  ASSERT_EQ(b.channels.size(), 1u);
  EXPECT_EQ(b.channels[0].name, "cabinet_kw");
  EXPECT_EQ(b.channels[0].samples, 4128u);
  EXPECT_EQ(b.channels[0].integral, a.channels[0].integral);
  // Determinism: re-serializing the round-trip is byte-identical.
  EXPECT_EQ(b.to_json_text(), a.to_json_text());
}

TEST(RunArtifact, SchemaIsStamped) {
  const JsonValue v = JsonValue::parse(sample_artifact().to_json_text());
  EXPECT_EQ(v.at("schema").as_string(), "hpcem.run_artifact");
  EXPECT_EQ(static_cast<int>(v.at("schema_version").as_number()),
            RunArtifact::kSchemaVersion);
}

TEST(RunArtifact, FromJsonRejectsWrongSchema) {
  EXPECT_THROW(RunArtifact::from_json_text(
                   with_member(sample_artifact(), "schema", "something.else")),
               InvalidArgument);
  EXPECT_THROW(RunArtifact::from_json_text(
                   with_member(sample_artifact(), "schema_version", 999)),
               InvalidArgument);
  EXPECT_THROW(RunArtifact::from_json_text("{not json"), ParseError);
  EXPECT_THROW(RunArtifact::from_json_text("{}"), ParseError);
}

// Schema v1/v2 documents are no longer read: one line that says how to
// get a v3 document instead.
TEST(RunArtifact, PreV3DocumentsAreRejected) {
  for (const int version : {0, 1, 2}) {
    try {
      (void)RunArtifact::from_json_text(
          with_member(sample_artifact(), "schema_version", version));
      FAIL() << "expected InvalidArgument for v" << version;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()),
                "RunArtifact: schema version " + std::to_string(version) +
                    " predates v3; re-export with --serve-export");
    }
  }
}

TEST(RunArtifact, ObsSectionOmittedWhenCollectionOff) {
  // Collection is off by default in the test process.
  EXPECT_TRUE(collected_obs_metrics().is_null());
  const JsonValue v = JsonValue::parse(sample_artifact().to_json_text());
  EXPECT_EQ(v.get("obs"), nullptr);
}

TEST(RunArtifact, ObsSectionRoundTripsInV2) {
  obs::set_enabled(true);
  obs::reset_collected();
  const obs::Counter jobs("artifact.test.jobs", "jobs");
  jobs.add(17);
  RunArtifact a = sample_artifact();
  a.obs = collected_obs_metrics();
  obs::set_enabled(false);
  obs::reset_collected();
  ASSERT_FALSE(a.obs.is_null());

  const RunArtifact b = RunArtifact::from_json_text(a.to_json_text());
  ASSERT_FALSE(b.obs.is_null());
  EXPECT_EQ(b.to_json_text(), a.to_json_text());
  const obs::MetricsSnapshot snap = obs::metrics_from_json(b.obs);
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "artifact.test.jobs") {
      EXPECT_EQ(c.value, 17u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunArtifact, CsvHasOneRowPerChannel) {
  const std::string csv = sample_artifact().to_csv();
  EXPECT_NE(
      csv.find("channel,unit,samples,mean,min,max,integral,first_time,"
               "last_time"),
      std::string::npos);
  EXPECT_NE(csv.find("cabinet_kw,kW,4128,"), std::string::npos);
}

TEST(RunArtifact, AggregateChannelMatchesSeriesAccumulators) {
  TimeSeries ts("kW");
  for (int i = 0; i < 100; ++i) {
    ts.append(SimTime(30.0 * i), 3000.0 + i);
  }
  const ChannelAggregate c = aggregate_channel("power", ts);
  EXPECT_EQ(c.name, "power");
  EXPECT_EQ(c.unit, "kW");
  EXPECT_EQ(c.samples, 100u);
  EXPECT_EQ(c.mean, ts.mean());
  EXPECT_EQ(c.min, ts.value_min());
  EXPECT_EQ(c.max, ts.value_max());
  EXPECT_EQ(c.integral, ts.integrate());
  EXPECT_EQ(c.first_time, ts.start_time());
  EXPECT_EQ(c.last_time, ts.end_time());
}

TEST(RunArtifact, MicroSimulationProducesConsistentArtifact) {
  ScenarioSpec spec = load_named_scenario("figure2");
  spec.machine = MachineModel::kMicro;
  spec.name = "micro-fig2";
  const FacilityAssembly assembly(spec);
  const RunArtifact a = simulated_artifact(assembly);

  EXPECT_EQ(a.scenario, "micro-fig2");
  EXPECT_EQ(a.source, "simulation");
  EXPECT_EQ(a.machine, "micro");
  EXPECT_EQ(a.replicates, 1u);
  EXPECT_EQ(a.window_start, spec.window_start);
  EXPECT_EQ(a.window_end, spec.window_end);
  EXPECT_GT(a.headline.mean_kw.kw(), 0.0);
  EXPECT_GT(a.headline.window_energy_kwh.kwh(), 0.0);
  EXPECT_GT(a.headline.completed_jobs, 0.0);
  // The scheduled change point is recorded alongside any detected one.
  ASSERT_GE(a.change_points.size(), 1u);
  EXPECT_FALSE(a.change_points.front().detected);
  // Channel aggregates cover the simulator's channel set, name-ordered.
  ASSERT_GE(a.channels.size(), 2u);
  for (std::size_t i = 1; i < a.channels.size(); ++i) {
    EXPECT_LT(a.channels[i - 1].name, a.channels[i].name);
  }
  // The headline is the timeline analysis' one window_headline, all six
  // numbers bit for bit.
  const auto sim = assembly.run_simulator();
  const TimelineResult result = analyze_timeline(*sim, assembly.spec());
  const RunHeadline fresh =
      window_headline(*sim, assembly.spec(), result.cabinet_kw);
  for (const RunHeadline* h : {&result.headline, &fresh}) {
    EXPECT_EQ(a.headline.mean_kw, h->mean_kw);
    EXPECT_EQ(a.headline.mean_before_kw, h->mean_before_kw);
    EXPECT_EQ(a.headline.mean_after_kw, h->mean_after_kw);
    EXPECT_EQ(a.headline.mean_utilisation, h->mean_utilisation);
    EXPECT_EQ(a.headline.window_energy_kwh, h->window_energy_kwh);
    EXPECT_EQ(a.headline.completed_jobs, h->completed_jobs);
  }
}

// Obs timing is the tree's one wall-clock read.  With collection on in
// wall-clock mode, only the artifact's `obs` member may differ from a run
// with collection off: no timing value reaches a simulated byte.
TEST(RunArtifact, ObsCollectionLeavesSimulatedBytesUnchanged) {
  ScenarioSpec spec = load_named_scenario("figure2");
  spec.machine = MachineModel::kMicro;
  spec.name = "micro-fig2";
  const FacilityAssembly assembly(spec);
  const std::string off = simulated_artifact(assembly).to_json_text();

  obs::set_enabled(true);
  obs::set_deterministic(false);
  obs::reset_collected();
  RunArtifact on = simulated_artifact(assembly);
  obs::set_enabled(false);
  obs::reset_collected();

  ASSERT_FALSE(on.obs.is_null());  // collection really ran
  on.obs = JsonValue();
  EXPECT_EQ(on.to_json_text(), off);
}

TEST(RunArtifact, CampaignArtifactsCarryReplicateMeans) {
  ScenarioSpec spec = load_named_scenario("figure2");
  spec.machine = MachineModel::kMicro;
  spec.name = "camp";
  spec.window_end = spec.window_start + Duration::days(14.0);
  spec.warmup = Duration::days(2.0);
  CampaignConfig cfg;
  cfg.seeds_per_scenario = 2;
  cfg.workers = 2;
  const std::vector<ScenarioSpec> specs = {spec};
  const CampaignResult result = run_campaign(specs, cfg);
  const auto artifacts = make_campaign_artifacts(result, specs);
  ASSERT_EQ(artifacts.size(), 1u);
  const RunArtifact& a = artifacts.front();
  EXPECT_EQ(a.source, "campaign");
  EXPECT_EQ(a.replicates, 2u);
  EXPECT_EQ(a.headline.mean_kw.kw(), result.scenarios.front().mean_kw.mean());
  EXPECT_TRUE(a.channels.empty());
  EXPECT_THROW(make_campaign_artifacts(result, {}), InvalidArgument);
}

TEST(RunArtifact, WriteArtifactFilesEmitsJsonAndCsv) {
  const RunArtifact a = sample_artifact();
  const std::string base = ::testing::TempDir() + "hpcem_artifact_test";
  const std::string json_path = write_artifact_files(a, base);
  EXPECT_EQ(json_path, base + ".artifact.json");

  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::ostringstream json_buf;
  json_buf << json_in.rdbuf();
  const RunArtifact back = RunArtifact::from_json_text(json_buf.str());
  EXPECT_EQ(back.to_json_text(), a.to_json_text());

  std::ifstream csv_in(base + ".aggregates.csv");
  ASSERT_TRUE(csv_in.good());
  std::ostringstream csv_buf;
  csv_buf << csv_in.rdbuf();
  EXPECT_EQ(csv_buf.str(), a.to_csv());

  std::remove(json_path.c_str());
  std::remove((base + ".aggregates.csv").c_str());
}

// ---------------------------------------------------------------------------
// Decode rules and byte identity of the streaming codec.

/// sample_artifact() plus raw series on two channels, with numbers that
/// stress the shortest round-trip rendering.
RunArtifact series_artifact() {
  RunArtifact a = sample_artifact();
  ChannelAggregate& c = a.channels.front();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  c.series = {{SimTime(1654041600.0), -0.0},
              {SimTime(1654041600.0), denorm_min},
              {SimTime(1654041612.345), 1.7976931348623157e308},
              {SimTime(1654041900.0), 9007199254740994.0},
              {SimTime(1654042200.0), 0.1}};
  ChannelAggregate d = c;
  d.name = "it_kw";
  d.series = {{SimTime(1654041600.0), 3172.46}, {SimTime(1654041900.0), -1.5}};
  a.channels.push_back(d);
  return a;
}

std::string error_of(const std::string& text) {
  try {
    (void)RunArtifact::from_json_text(text);
    return "(no error)";
  } catch (const Error& e) {
    return e.what();
  }
}

/// `v` written through a JsonWriter with every object member preceded by
/// a junk-valued duplicate (`duplicate`) and/or every object opened with
/// an unknown member (`unknown`).
void write_decorated(JsonWriter& w, const JsonValue& v, bool duplicate,
                     bool unknown) {
  if (v.is_object()) {
    w.begin_object();
    if (unknown) {
      w.key("x_unknown");
      w.value(JsonValue::parse(R"({"a": [1, "b", null, {}], "c": true})"));
    }
    for (const auto& [k, m] : v.as_object()) {
      if (duplicate) {
        w.key(k);
        w.string("junk");
      }
      w.key(k);
      write_decorated(w, m, duplicate, unknown);
    }
    w.end_object();
  } else if (v.is_array()) {
    w.begin_array();
    for (const JsonValue& e : v.as_array()) {
      write_decorated(w, e, duplicate, unknown);
    }
    w.end_array();
  } else {
    w.value(v);
  }
}

std::string decorated(const std::string& text, bool duplicate, bool unknown) {
  JsonWriter w(2);
  write_decorated(w, JsonValue::parse(text), duplicate, unknown);
  return std::move(w).finish();
}

JsonValue reversed_members(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::object();
    const JsonValue::Object& o = v.as_object();
    for (auto it = o.rbegin(); it != o.rend(); ++it) {
      out.set(it->first, reversed_members(it->second));
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::array();
    for (const JsonValue& e : v.as_array()) out.push_back(reversed_members(e));
    return out;
  }
  return v;
}

TEST(RunArtifactDecode, MembersInAnyOrder) {
  const std::string text = series_artifact().to_json_text();
  const std::string shuffled = reversed_members(JsonValue::parse(text)).dump(0);
  ASSERT_NE(shuffled, JsonValue::parse(text).dump(0));
  EXPECT_EQ(RunArtifact::from_json_text(shuffled).to_json_text(), text);
}

TEST(RunArtifactDecode, LastDuplicateMemberWins) {
  const std::string text = series_artifact().to_json_text();
  // A junk copy before every member, at every level, is overridden.
  EXPECT_EQ(RunArtifact::from_json_text(decorated(text, true, false))
                .to_json_text(),
            text);
  // A bad copy after a good one is what decode sees.
  const auto with_trailing = [&](const std::string& key,
                                 const std::string& value) {
    std::string doc = JsonValue::parse(text).dump(0);
    doc.insert(doc.size() - 1, ",\"" + key + "\":" + value);
    return doc;
  };
  EXPECT_EQ(error_of(with_trailing("scenario", "5")),
            "JsonValue: not a string");
  EXPECT_EQ(error_of(with_trailing("channels", "{}")),
            "JsonValue: not an array");
  EXPECT_EQ(RunArtifact::from_json_text(with_trailing("scenario", "\"b\""))
                .scenario,
            "b");
  EXPECT_TRUE(RunArtifact::from_json_text(with_trailing("channels", "[]"))
                  .channels.empty());
}

TEST(RunArtifactDecode, UnknownMembersIgnored) {
  const std::string text = series_artifact().to_json_text();
  EXPECT_EQ(RunArtifact::from_json_text(decorated(text, false, true))
                .to_json_text(),
            text);
  EXPECT_EQ(RunArtifact::from_json_text(decorated(text, true, true))
                .to_json_text(),
            text);
}

TEST(RunArtifactDecode, MissingMemberNamesTheMember) {
  const JsonValue doc = JsonValue::parse(series_artifact().to_json_text());
  const std::vector<std::vector<std::string>> paths = {
      {"schema"}, {"schema_version"}, {"scenario"}, {"source"}, {"machine"},
      {"window_start"}, {"window_start", "epoch_s"}, {"window_end"},
      {"replicates"}, {"headline"}, {"headline", "mean_kw"},
      {"headline", "mean_before_kw"}, {"headline", "mean_after_kw"},
      {"headline", "mean_utilisation"}, {"headline", "window_energy_kwh"},
      {"headline", "completed_jobs"}, {"change_points"},
      {"change_points", "1", "at"}, {"change_points", "1", "at", "epoch_s"},
      {"change_points", "1", "mean_before_kw"},
      {"change_points", "1", "mean_after_kw"},
      {"change_points", "1", "detected"}, {"channels"},
      {"channels", "1", "name"}, {"channels", "1", "unit"},
      {"channels", "1", "samples"}, {"channels", "1", "mean"},
      {"channels", "1", "min"}, {"channels", "1", "max"},
      {"channels", "1", "integral"}, {"channels", "1", "first_time"},
      {"channels", "1", "last_time", "epoch_s"},
      {"channels", "1", "series", "times"},
      {"channels", "1", "series", "values"}};
  for (const auto& path : paths) {
    const std::string text = test::edited(doc, path, std::nullopt).dump(2);
    EXPECT_EQ(error_of(text), "JsonValue: missing member: " + path.back())
        << path.back();
  }
  // A document or channel that is not an object has no members at all.
  EXPECT_EQ(error_of("[1]"), "JsonValue: missing member: schema");
  EXPECT_EQ(error_of(test::edited(doc, {"channels", "0"}, JsonValue(4)).dump()),
            "JsonValue: missing member: name");
  EXPECT_EQ(error_of(test::edited(doc, {"channels", "0", "series"},
                                  JsonValue("s"))
                         .dump()),
            "JsonValue: missing member: times");
}

TEST(RunArtifactDecode, OnlyV3DocumentsParse) {
  RunArtifact a = sample_artifact();  // no series: an aggregate-only channel
  const RunArtifact b =
      RunArtifact::from_json_text(with_member(a, "schema_version", 3));
  EXPECT_EQ(b.channels.front().samples, 4128u);
  EXPECT_TRUE(b.channels.front().series.empty());
  EXPECT_TRUE(b.obs.is_null());
  for (const int version : {1, 2}) {
    EXPECT_EQ(error_of(with_member(a, "schema_version", version)),
              "RunArtifact: schema version " + std::to_string(version) +
                  " predates v3; re-export with --serve-export");
  }
  EXPECT_EQ(error_of(with_member(a, "schema_version", 4)),
            "RunArtifact: unsupported schema version 4");
  // The obs member: carried as a DOM subtree and checked on the way in.
  const JsonValue obs_doc = obs::metrics_json(obs::MetricsSnapshot{});
  const std::string v2 = with_member(a, "obs", obs_doc);
  EXPECT_EQ(RunArtifact::from_json_text(v2).obs.dump(0), obs_doc.dump(0));
  EXPECT_THROW(RunArtifact::from_json_text(with_member(a, "obs", 5)), Error);
}

TEST(RunArtifactDecode, SeriesTimesMustNotDecrease) {
  const JsonValue doc = JsonValue::parse(series_artifact().to_json_text());
  const std::string back = test::edited(doc, {"channels", "0", "series",
                                              "times", "3"},
                                        JsonValue(1654041612.0))
                               .dump(2);
  EXPECT_EQ(error_of(back),
            "RunArtifact: channel 'cabinet_kw' series times must be "
            "non-decreasing");
  EXPECT_THROW(RunArtifact::from_json_text(back), InvalidArgument);
  // Equal neighbours are fine (the first two samples share a time).
  EXPECT_EQ(series_artifact().channels.front().series[0].time,
            series_artifact().channels.front().series[1].time);
}

TEST(RunArtifactDecode, SeriesErrorsComeInIndexOrder) {
  const JsonValue doc = JsonValue::parse(series_artifact().to_json_text());
  const auto at = [](const char* column, int i) {
    return std::vector<std::string>{"channels", "0", "series", column,
                                    std::to_string(i)};
  };
  // Element errors: the lowest index wins; at one index the time's type,
  // then its order, then the value's type.
  JsonValue bad = test::edited(doc, at("values", 1), JsonValue("x"));
  bad = test::edited(bad, at("times", 3), JsonValue(0.0));
  EXPECT_EQ(error_of(bad.dump()), "JsonValue: not a number");
  bad = test::edited(doc, at("values", 3), JsonValue("x"));
  bad = test::edited(bad, at("times", 3), JsonValue(0.0));
  EXPECT_THROW(RunArtifact::from_json_text(bad.dump()), InvalidArgument);
  bad = test::edited(doc, at("times", 3), JsonValue::array());
  EXPECT_THROW(RunArtifact::from_json_text(bad.dump()), ParseError);
  // A length mismatch is reported before any element.
  bad = test::edited(doc, at("times", 0), JsonValue("x"));
  bad = test::edited(bad, at("values", 4), std::nullopt);
  EXPECT_EQ(error_of(bad.dump()),
            "RunArtifact: channel 'cabinet_kw' series times/values length "
            "mismatch");
  bad = test::edited(doc, {"channels", "0", "series", "values"},
                     JsonValue("x"));
  EXPECT_EQ(error_of(bad.dump()), "JsonValue: not an array");
}

TEST(RunArtifactDecode, SampleCountBeyondTheTextAllocatesNothingForIt) {
  // A channel's "samples" is read before its "series" and sizes the
  // series buffer, but never beyond what the text could hold: a count of
  // 2^53 over a short series reaches the series checks, not bad_alloc.
  const JsonValue doc = JsonValue::parse(series_artifact().to_json_text());
  JsonValue bad =
      test::edited(doc, {"channels", "0", "samples"}, JsonValue(0x1p53));
  bad = test::edited(bad, {"channels", "0", "series", "values", "4"},
                     std::nullopt);
  EXPECT_EQ(error_of(bad.dump()),
            "RunArtifact: channel 'cabinet_kw' series times/values length "
            "mismatch");
}

TEST(RunArtifactDecode, CountsMustBeNonNegativeIntegers) {
  const JsonValue doc = JsonValue::parse(series_artifact().to_json_text());
  const std::vector<std::pair<std::vector<std::string>, std::string>> fields =
      {{{"schema_version"}, "schema_version"},
       {{"replicates"}, "replicates"},
       {{"channels", "1", "samples"}, "channel 'it_kw' samples"}};
  for (const auto& [path, label] : fields) {
    for (const double bad : {-1.0, 1e300, 0.5, 9007199254740994.0}) {
      const std::string text = test::edited(doc, path, JsonValue(bad)).dump();
      const std::string message = error_of(text);
      EXPECT_EQ(message, "RunArtifact: " + label +
                             " must be a non-negative integer <= 2^53, got " +
                             json_number(bad));
      EXPECT_THROW(RunArtifact::from_json_text(text), ParseError);
    }
  }
  // 2^53 itself is in range.
  const double top = 9007199254740992.0;
  const RunArtifact a = RunArtifact::from_json_text(
      test::edited(test::edited(doc, {"replicates"}, JsonValue(top)),
                   {"channels", "1", "samples"}, JsonValue(top))
          .dump());
  EXPECT_EQ(a.replicates, std::size_t{1} << 53);
  EXPECT_EQ(a.channels[1].samples, std::size_t{1} << 53);
  EXPECT_EQ(error_of(test::edited(doc, {"schema_version"}, JsonValue(top))
                         .dump()),
            "RunArtifact: unsupported schema version 9007199254740992");
}

TEST(RunArtifactDecode, NumbersRoundTripBitExactly) {
  const RunArtifact a = series_artifact();
  const RunArtifact b = RunArtifact::from_json_text(a.to_json_text());
  ASSERT_EQ(b.channels.size(), a.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const auto& want = a.channels[c].series;
    const auto& got = b.channels[c].series;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].time.sec()),
                std::bit_cast<std::uint64_t>(want[i].time.sec()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                std::bit_cast<std::uint64_t>(want[i].value));
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.headline.mean_utilisation),
            std::bit_cast<std::uint64_t>(a.headline.mean_utilisation));
  EXPECT_EQ(b.to_json_text(), a.to_json_text());
}

TEST(RunArtifactDecode, CommittedArtifactsReencodeByteForByte) {
  const std::filesystem::path root = HPCEM_SOURCE_DIR;
  std::vector<std::filesystem::path> files = {
      root / "scenarios/ci/ci-smoke.artifact.json"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "bench/baselines/serve")) {
    if (entry.path().string().ends_with(".artifact.json")) {
      files.push_back(entry.path());
    }
  }
  ASSERT_GE(files.size(), 3u);
  for (const auto& file : files) {
    const auto text = read_text_file(file.string());
    ASSERT_TRUE(text.has_value()) << file;
    const RunArtifact a = RunArtifact::from_json_text(*text);
    EXPECT_FALSE(a.channels.empty()) << file;
    EXPECT_EQ(a.to_json_text(), *text) << file;
  }
}

// ---------------------------------------------------------------------------
// Clocks: each is formatted and parsed once, and the file is streamed.

/// Channel `name` with one series over `times`; values differ per channel.
ChannelAggregate clocked_channel(const std::string& name,
                                 const std::vector<double>& times) {
  ChannelAggregate c;
  c.name = name;
  c.unit = "kW";
  c.samples = times.size();
  for (std::size_t i = 0; i < times.size(); ++i) {
    c.series.push_back({SimTime(times[i]),
                        static_cast<double>(name.size() * 100 + i)});
  }
  return c;
}

/// Four channels on two clocks, interleaved: a and cc on one, b and dd on
/// the other.
RunArtifact two_clock_artifact() {
  RunArtifact a = sample_artifact();
  a.channels = {clocked_channel("a", {60, 120, 180}),
                clocked_channel("b", {60, 120, 180.5}),
                clocked_channel("cc", {60, 120, 180}),
                clocked_channel("dd", {60, 120, 180.5})};
  return a;
}

/// Three channels on two clocks that differ only in the sign of a zero.
RunArtifact signed_zero_artifact() {
  RunArtifact a = sample_artifact();
  a.channels = {clocked_channel("neg", {-0.0, 1.0}),
                clocked_channel("pos", {0.0, 1.0}),
                clocked_channel("neg2", {-0.0, 1.0})};
  return a;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_same_times(const RunArtifact& got, const RunArtifact& want) {
  ASSERT_EQ(got.channels.size(), want.channels.size());
  for (std::size_t c = 0; c < want.channels.size(); ++c) {
    EXPECT_TRUE(same_times(got.channels[c].series, want.channels[c].series))
        << want.channels[c].name;
  }
}

TEST(RunArtifactClock, FileBytesEqualTheText) {
  const auto ci = read_text_file(std::string(HPCEM_SOURCE_DIR) +
                                 "/scenarios/ci/ci-smoke.artifact.json");
  ASSERT_TRUE(ci.has_value());
  // ci-smoke's seven channels share one clock, and its text is larger
  // than one writer buffer.
  ASSERT_GT(ci->size(), JsonWriter::kFlushBytes);
  const std::string base = ::testing::TempDir() + "hpcem_clock_test";
  for (const RunArtifact& a :
       {RunArtifact::from_json_text(*ci), two_clock_artifact(),
        signed_zero_artifact()}) {
    const std::string path = write_artifact_files(a, base);
    // Not EXPECT_EQ: a line diff of ci-smoke's 4,239 lines is costly.
    EXPECT_TRUE(file_bytes(path) == a.to_json_text()) << a.channels.size();
    EXPECT_FALSE(std::filesystem::exists(path + ".part"));
    std::remove(path.c_str());
    std::remove((base + ".aggregates.csv").c_str());
  }
}

TEST(RunArtifactClock, SharedAndDistinctClocksRoundTrip) {
  for (const RunArtifact& a : {two_clock_artifact(), signed_zero_artifact()}) {
    const std::string text = a.to_json_text();
    const RunArtifact back = RunArtifact::from_json_text(text);
    expect_same_times(back, a);
    EXPECT_EQ(back.to_json_text(), text);
  }
  // -0.0 and 0.0 are two clocks: each keeps its own spelling.
  const std::string text = signed_zero_artifact().to_json_text();
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("channels").as_array()[0].at("series").at("times").dump(0),
            "[-0,1]");
  EXPECT_EQ(doc.at("channels").as_array()[1].at("series").at("times").dump(0),
            "[0,1]");
}

/// `text` with the `n`th (0-based) occurrence of `from` replaced by `to`.
std::string replace_nth(std::string text, const std::string& from,
                        const std::string& to, std::size_t n) {
  std::size_t at = text.find(from);
  for (std::size_t i = 0; i < n && at != std::string::npos; ++i) {
    at = text.find(from, at + from.size());
  }
  EXPECT_NE(at, std::string::npos) << from << " #" << n;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The compact text of two_clock_artifact(): channel k's "times" is the
/// k-th "times" array, and clock a's first element is the k-th "[60,".
std::string compact_two_clock_text() {
  return JsonValue::parse(two_clock_artifact().to_json_text()).dump(0);
}

TEST(RunArtifactClock, RespelledRepeatDecodesToTheSameTimes) {
  const RunArtifact want = two_clock_artifact();
  const std::string text = compact_two_clock_text();
  // Channel "cc" repeats channel "a"'s clock, respelled in each way; and
  // channel "a" respelled before a canonical repeat.
  for (const auto& [from, to, n] :
       std::vector<std::tuple<std::string, std::string, std::size_t>>{
           {"[60,", "[6e1,", 2},
           {"[60,", "[ 60 ,", 2},
           {"[60,", "[60.0,", 2},
           {"[60,", "[\n60,", 0},
           {"180]", "1.8e2]", 0}}) {
    const std::string respelled = replace_nth(text, from, to, n);
    ASSERT_NE(respelled, text);
    const RunArtifact got = RunArtifact::from_json_text(respelled);
    expect_same_times(got, want);
    EXPECT_EQ(got.to_json_text(), want.to_json_text()) << to;
  }
}

TEST(RunArtifactClock, BadRepeatGivesTheUsualError) {
  const std::string text = compact_two_clock_text();
  // Channel "cc" (third "times") differs from channel "a"'s clock by one
  // element: a string, or a time before its neighbour.
  EXPECT_EQ(error_of(replace_nth(text, "[60,120,180]", "[60,\"x\",180]", 1)),
            "JsonValue: not a number");
  EXPECT_EQ(error_of(replace_nth(text, "[60,120,180]", "[60,120,59]", 1)),
            "RunArtifact: channel 'cc' series times must be non-decreasing");
  // A decreasing clock that parses as numbers is repeated as parsed.
  std::string both = replace_nth(text, "[60,120,180]", "[60,120,59]", 1);
  both = replace_nth(both, "[60,120,180]", "[60,120,59]", 0);
  EXPECT_EQ(error_of(both),
            "RunArtifact: channel 'a' series times must be non-decreasing");
  // A clock with a non-number is not taken as parsed, even when repeated.
  EXPECT_EQ(error_of(replace_nth(text, "\"times\":[60,120,180]",
                                 "\"times\":[60,\"x\",180],"
                                 "\"times\":[60,\"x\",180]",
                                 0)),
            "JsonValue: not a number");
  // A syntax error in a repeat is reported where it is.
  EXPECT_EQ(error_of(replace_nth(text, "[60,120,180]", "[60,120,,180]", 1)),
            "json: expected a value at line 1, column " +
                std::to_string(replace_nth(text, "[60,120,180]",
                                           "[60,120,,180]", 1)
                                   .find(",,") +
                               2));
}

}  // namespace
}  // namespace hpcem
