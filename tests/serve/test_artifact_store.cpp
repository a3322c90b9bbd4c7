// ArtifactStore: ingest, duplicate rejection, columnisation and windowed
// aggregates — and the one-line rejection of what the single shard ingest
// path cannot serve (pre-v3 documents, aggregate-only channels).
#include "serve/artifact_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "colstore/hcaf.hpp"
#include "telemetry/timeseries.hpp"

namespace hpcem::serve {
namespace {

TimeSeries ramp_series(std::size_t n, double t0 = 0.0, double dt = 600.0) {
  TimeSeries s("kW");
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + static_cast<double>(i) * dt;
    s.append(SimTime(t), 3000.0 + 10.0 * static_cast<double>(i % 37));
  }
  return s;
}

RunArtifact make_artifact(const std::string& scenario, std::size_t samples,
                          bool with_series) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  a.machine = "archer2";
  const TimeSeries s = ramp_series(samples);
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = s.summary().mean;
  a.headline.window_energy_kwh = s.integrate() / 3600.0;
  a.headline.completed_jobs = 100.0;
  a.channels.push_back(aggregate_channel("cabinet_kw", s, with_series));
  return a;
}

TEST(ArtifactStore, IngestsAndColumnisesSeries) {
  ArtifactStore store;
  store.add(make_artifact("base", 200, true));

  ASSERT_EQ(store.scenario_count(), 1u);
  const StoredScenario& s = store.at("base");
  ASSERT_EQ(s.channels.size(), 1u);
  const StoredChannel& ch = s.channels[0];
  EXPECT_TRUE(ch.has_series());
  EXPECT_EQ(ch.times.size(), 200u);
  EXPECT_EQ(ch.values.size(), 200u);
  // Prefix arrays carry one extra slot (the empty prefix).
  EXPECT_EQ(ch.prefix_value_sum.size(), 201u);
  EXPECT_EQ(ch.prefix_integral.size(), 201u);
  EXPECT_DOUBLE_EQ(ch.prefix_value_sum.front(), 0.0);
  EXPECT_EQ(store.total_series_samples(), 200u);
}

TEST(ArtifactStore, RoundTripsThroughJson) {
  const RunArtifact a = make_artifact("rt", 64, true);
  const RunArtifact back = RunArtifact::from_json_text(a.to_json_text());
  ASSERT_EQ(back.channels.size(), 1u);
  ASSERT_EQ(back.channels[0].series.size(), 64u);

  ArtifactStore store;
  store.add(back);
  const StoredChannel& ch = store.at("rt").channels[0];
  const TimeSeries ref = ramp_series(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(ch.times[i], ref[i].time.sec());
    EXPECT_DOUBLE_EQ(ch.values[i], ref[i].value);
  }
}

/// The message of the InvalidArgument `ingest` throws ("" if none).
std::string rejection_of(const std::function<void()>& ingest) {
  try {
    ingest();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

/// A rejection a tool can print as its one `error:` line, naming what
/// went wrong and the way out.
void expect_one_line_naming(const std::string& what,
                            const std::vector<std::string>& names) {
  EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  for (const std::string& name : names) {
    EXPECT_NE(what.find(name), std::string::npos) << name << " in " << what;
  }
  EXPECT_NE(what.find("--serve-export"), std::string::npos) << what;
}

TEST(ArtifactStore, RejectsAggregateOnlyJsonArtifacts) {
  namespace fs = std::filesystem;
  const RunArtifact old = make_artifact("old", 50, false);
  const fs::path path =
      fs::temp_directory_path() / "hpcem_store_aggregate_only.artifact.json";
  std::ofstream(path) << old.to_json_text();

  ArtifactStore store;
  store.add(make_artifact("kept", 8, true));
  // In memory and from a file alike: a channel with samples but no series
  // cannot answer a sub-window or what-if query, so it never gets in.
  expect_one_line_naming(rejection_of([&] { store.add(old); }),
                         {"'old'", "'cabinet_kw'"});
  expect_one_line_naming(rejection_of([&] { store.load_file(path.string()); }),
                         {path.string(), "'old'", "'cabinet_kw'"});

  // A pre-v3 document is turned away before any channel is looked at.
  std::string v2 = make_artifact("v2", 50, true).to_json_text();
  const std::string stamp = "\"schema_version\": 3";
  const auto pos = v2.find(stamp);
  ASSERT_NE(pos, std::string::npos);
  v2.replace(pos, stamp.size(), "\"schema_version\": 2");
  std::ofstream(path) << v2;
  expect_one_line_naming(rejection_of([&] { store.load_file(path.string()); }),
                         {path.string(), "schema version 2"});

  EXPECT_EQ(store.scenario_names(), std::vector<std::string>{"kept"});
  fs::remove(path);
}

TEST(ArtifactStore, RejectsAggregateOnlyHcafShards) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "hpcem_store_aggregate_only.hcaf";
  // The shard format itself can carry an aggregate-only channel; the store
  // refuses it, and the series-bearing scenario ahead of it in the same
  // shard does not get in either.
  colstore::write_shard_file(
      {make_artifact("fine", 8, true), make_artifact("old", 50, false)},
      path.string());
  ArtifactStore store;
  expect_one_line_naming(
      rejection_of([&] { (void)store.load_hcaf_file(path.string()); }),
      {path.string(), "'old'", "'cabinet_kw'"});
  EXPECT_EQ(store.scenario_count(), 0u);
  fs::remove(path);
}

TEST(ArtifactStore, AcceptsZeroSampleChannels) {
  namespace fs = std::filesystem;
  RunArtifact a = make_artifact("quiet", 8, true);
  a.channels.push_back(aggregate_channel("idle_kw", TimeSeries("kW"), true));
  ASSERT_EQ(a.channels.back().samples, 0u);
  const fs::path dir = fs::temp_directory_path() / "hpcem_store_zero_sample";
  fs::create_directories(dir);
  const std::string json = write_artifact_files(a, (dir / "quiet").string());
  const std::string hcaf = (dir / "quiet.hcaf").string();
  colstore::write_shard_file({a}, hcaf);

  ArtifactStore from_memory;
  from_memory.add(a);
  ArtifactStore from_json;
  from_json.load_file(json);
  ArtifactStore from_hcaf;
  (void)from_hcaf.load_hcaf_file(hcaf);
  for (const ArtifactStore* store : {&from_memory, &from_json, &from_hcaf}) {
    const StoredChannel* idle = store->at("quiet").find_channel("idle_kw");
    ASSERT_NE(idle, nullptr);
    EXPECT_FALSE(idle->has_series());
    EXPECT_EQ(idle->aggregate.samples, 0u);
    EXPECT_EQ(ArtifactStore::window_aggregate(*idle, SimTime(0.0),
                                              SimTime(1e9))
                  .samples,
              0u);
    EXPECT_EQ(store->total_series_samples(), 8u);
  }
  fs::remove_all(dir);
}

TEST(ArtifactStore, RejectsDuplicateScenarioIds) {
  ArtifactStore store;
  store.add(make_artifact("dup", 10, true), "first.artifact.json");
  try {
    store.add(make_artifact("dup", 10, true), "second.artifact.json");
    FAIL() << "expected DuplicateScenarioError";
  } catch (const DuplicateScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dup"), std::string::npos);
    EXPECT_NE(what.find("first.artifact.json"), std::string::npos);
    EXPECT_NE(what.find("second.artifact.json"), std::string::npos);
    // One line: tools print it verbatim as `error: ...`.
    EXPECT_EQ(what.find('\n'), std::string::npos);
  }
  // The store is unchanged by the failed ingest.
  EXPECT_EQ(store.scenario_count(), 1u);
  EXPECT_EQ(store.at("dup").source_file, "first.artifact.json");
}

TEST(ArtifactStore, IterationOrderIsLexicographicNotIngestOrder) {
  ArtifactStore forward;
  forward.add(make_artifact("beta", 8, true));
  forward.add(make_artifact("alpha", 8, true));
  ArtifactStore reverse;
  reverse.add(make_artifact("alpha", 8, true));
  reverse.add(make_artifact("beta", 8, true));

  const std::vector<std::string> expected{"alpha", "beta"};
  EXPECT_EQ(forward.scenario_names(), expected);
  EXPECT_EQ(reverse.scenario_names(), expected);
  EXPECT_EQ(forward.at(0).name, "alpha");
  EXPECT_EQ(forward.at(1).name, "beta");
}

TEST(ArtifactStore, WindowAggregateMatchesDirectComputation) {
  const TimeSeries ref = ramp_series(300);
  ArtifactStore store;
  store.add(make_artifact("w", 300, true));
  const StoredChannel& ch = store.at("w").channels[0];

  const SimTime start(60000.0);
  const SimTime end(120000.0);
  const WindowAggregate w = ArtifactStore::window_aggregate(ch, start, end);

  // Reference: scan the raw samples.
  std::size_t n = 0;
  double sum = 0.0;
  double mn = 1e300;
  double mx = -1e300;
  for (const auto& s : ref.samples()) {
    if (s.time >= start && s.time < end) {
      ++n;
      sum += s.value;
      mn = std::min(mn, s.value);
      mx = std::max(mx, s.value);
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_EQ(w.samples, n);
  EXPECT_NEAR(w.mean, sum / static_cast<double>(n), 1e-9);
  EXPECT_DOUBLE_EQ(w.min, mn);
  EXPECT_DOUBLE_EQ(w.max, mx);
  // The whole-window integral equals the streaming aggregate's.
  const WindowAggregate whole = ArtifactStore::window_aggregate(
      ch, SimTime(0.0), SimTime(1e18));
  EXPECT_NEAR(whole.integral, ch.aggregate.integral,
              1e-6 * std::abs(ch.aggregate.integral));
  EXPECT_EQ(whole.samples, 300u);
}

TEST(ArtifactStore, EmptyWindowReportsZeroSamples) {
  ArtifactStore store;
  store.add(make_artifact("e", 20, true));
  const StoredChannel& ch = store.at("e").channels[0];
  const WindowAggregate w =
      ArtifactStore::window_aggregate(ch, SimTime(1e9), SimTime(2e9));
  EXPECT_EQ(w.samples, 0u);
}

TEST(ArtifactStore, LoadDirectoryIngestsSortedAndRejectsDuplicates) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hpcem_store_test_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const std::string& stem, const RunArtifact& a) {
    std::ofstream out(dir / (stem + ".artifact.json"));
    out << a.to_json_text();
  };
  write("b_second", make_artifact("s2", 16, true));
  write("a_first", make_artifact("s1", 16, true));
  std::ofstream(dir / "notes.txt") << "ignored";

  ArtifactStore store;
  EXPECT_EQ(store.load_directory(dir.string()), 2u);
  EXPECT_EQ(store.scenario_count(), 2u);
  // Provenance records the actual file each scenario came from.
  EXPECT_NE(store.at("s1").source_file.find("a_first"), std::string::npos);

  write("c_dup", make_artifact("s1", 16, true));
  ArtifactStore fresh;
  EXPECT_THROW(fresh.load_directory(dir.string()), DuplicateScenarioError);
  fs::remove_all(dir);
}

TEST(ArtifactStore, FindChannelIsExact) {
  ArtifactStore store;
  RunArtifact a = make_artifact("m", 8, true);
  const TimeSeries s = ramp_series(8);
  a.channels.push_back(aggregate_channel("utilisation", s, true));
  a.channels.push_back(aggregate_channel("aaa", s, true));
  store.add(a);
  const StoredScenario& sc = store.at("m");
  // Channels are sorted by name regardless of producer order.
  ASSERT_EQ(sc.channels.size(), 3u);
  EXPECT_EQ(sc.channels[0].name, "aaa");
  EXPECT_EQ(sc.channels[2].name, "utilisation");
  EXPECT_NE(sc.find_channel("cabinet_kw"), nullptr);
  EXPECT_EQ(sc.find_channel("cabinet"), nullptr);
  EXPECT_EQ(sc.find_channel("zzz"), nullptr);
}

TEST(ArtifactStore, UnknownScenarioLookups) {
  ArtifactStore store;
  store.add(make_artifact("only", 8, true));
  EXPECT_EQ(store.find("missing"), nullptr);
  EXPECT_THROW(store.at("missing"), InvalidArgument);
}

}  // namespace
}  // namespace hpcem::serve
