// HCAF round-trip properties: for any representable RunArtifact,
// write_shard_bytes -> read_shard_bytes -> to_artifact reconstructs a
// struct whose to_json_text() is byte-identical to the input's — HCAF v1
// is exactly as expressive as JSON schema v3.  Exercised over seeded
// random artifacts, hand-built edge cases (aggregate-only channels,
// empty shards, multi-scenario shards) and the committed ci-smoke
// artifact (the obs-bearing, scenario-library-derived case CI serves).
#include "colstore/hcaf.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "colstore/bytes.hpp"
#include "colstore/format.hpp"
#include "core/run_artifact.hpp"
#include "telemetry/timeseries.hpp"
#include "util/rng.hpp"

namespace hpcem::colstore {
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

/// The property under test, applied to one batch of artifacts.
void expect_round_trip(const std::vector<RunArtifact>& artifacts) {
  const std::string bytes = write_shard_bytes(artifacts);
  const std::vector<ShardScenario> scenarios =
      read_shard_bytes(bytes, "test-shard");
  ASSERT_EQ(scenarios.size(), artifacts.size());
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    const RunArtifact back = to_artifact(scenarios[i]);
    EXPECT_EQ(back.to_json_text(), artifacts[i].to_json_text())
        << "scenario '" << artifacts[i].scenario
        << "' does not survive the HCAF round trip";
  }
}

TEST(HcafFormat, RoundTripsASeriesBearingArtifact) {
  expect_round_trip({make_artifact("base", 200, true)});
}

TEST(HcafFormat, RoundTripsAggregateOnlyChannels) {
  expect_round_trip({make_artifact("agg", 64, false)});
}

TEST(HcafFormat, RoundTripsAnEmptyShard) {
  const std::string bytes = write_shard_bytes({});
  EXPECT_GE(bytes.size(), kHeaderSize + kFooterSize);
  EXPECT_TRUE(read_shard_bytes(bytes, "empty").empty());
}

TEST(HcafFormat, RoundTripsChangePointsAndMultiChannelArtifacts) {
  RunArtifact a = make_artifact("rich", 96, true);
  a.replicates = 12;
  a.headline.mean_before_kw = 3100.0;
  a.headline.mean_after_kw = 2800.0;
  a.headline.mean_utilisation = 0.87;
  a.change_points.push_back(
      {SimTime(86400.0), 3100.0, 2800.0, /*detected=*/true});
  a.change_points.push_back(
      {SimTime(172800.0), 2800.0, 2750.0, /*detected=*/false});
  const TimeSeries util = ramp_series(48, 300.0, 1200.0);
  a.channels.push_back(aggregate_channel("utilisation", util, true));
  a.channels.push_back(aggregate_channel("idle_kw", util, false));
  expect_round_trip({a});
}

TEST(HcafFormat, PreservesArtifactOrderInMultiScenarioShards) {
  const std::vector<RunArtifact> artifacts = {
      make_artifact("zeta", 32, true), make_artifact("alpha", 16, false),
      make_artifact("mid", 8, true)};
  const std::string bytes = write_shard_bytes(artifacts);
  const std::vector<ShardScenario> scenarios =
      read_shard_bytes(bytes, "ordered");
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].name, "zeta");
  EXPECT_EQ(scenarios[1].name, "alpha");
  EXPECT_EQ(scenarios[2].name, "mid");
  expect_round_trip(artifacts);
}

TEST(HcafFormat, WriterIsDeterministic) {
  const std::vector<RunArtifact> artifacts = {make_artifact("a", 50, true),
                                              make_artifact("b", 10, false)};
  EXPECT_EQ(write_shard_bytes(artifacts), write_shard_bytes(artifacts));
}

TEST(HcafFormat, ColumnsCarryQueryReadyPrefixSums) {
  const std::string bytes =
      write_shard_bytes({make_artifact("cols", 40, true)});
  const std::vector<ShardScenario> scenarios =
      read_shard_bytes(bytes, "cols");
  ASSERT_EQ(scenarios.size(), 1u);
  const ShardChannel& ch = scenarios[0].channels.at(0);
  ASSERT_TRUE(ch.has_series());
  // Aggregate scalars survive; the duplicated raw series stays empty (the
  // columns are the one copy).
  EXPECT_TRUE(ch.aggregate.series.empty());
  EXPECT_EQ(ch.columns.times.size(), 40u);
  EXPECT_EQ(ch.columns.values.size(), 40u);
  EXPECT_EQ(ch.columns.prefix_value_sum.size(), 41u);
  EXPECT_EQ(ch.columns.prefix_integral.size(), 41u);
  EXPECT_DOUBLE_EQ(ch.columns.prefix_value_sum.front(), 0.0);
  // The embedded columns equal a fresh columnisation of the same series.
  const RunArtifact back = to_artifact(scenarios[0]);
  const ChannelColumns fresh = build_columns(back.channels[0].series);
  EXPECT_EQ(ch.columns.prefix_value_sum, fresh.prefix_value_sum);
  EXPECT_EQ(ch.columns.prefix_integral, fresh.prefix_integral);
}

TEST(HcafFormat, RoundTripsTheCommittedCiSmokeArtifact) {
  std::ifstream in(HPCEM_CI_ARTIFACT, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << HPCEM_CI_ARTIFACT;
  std::ostringstream buf;
  buf << in.rdbuf();
  expect_round_trip({RunArtifact::from_json_text(buf.str())});
}

TEST(HcafFormat, RoundTripsAnObsBearingArtifact) {
  // The v2 "obs" member travels as embedded JSON text; the reader
  // re-validates it against the obs-metrics schema before re-attaching.
  RunArtifact a = make_artifact("with-obs", 24, true);
  a.obs = JsonValue::parse(
      R"({"schema": "hpcem.obs_metrics", "schema_version": 1,)"
      R"( "counters": [{"name": "sim.events", "unit": "events",)"
      R"( "value": 42}], "gauges": [], "histograms": []})");
  expect_round_trip({a});
}

// ---------------------------------------------------------------------------
// Seeded property sweep: random artifacts drawn from the representable
// space (any failure reproduces from its case number).

RunArtifact random_artifact(Rng& rng, const std::string& scenario) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = rng.bernoulli(0.5) ? "simulation" : "campaign";
  if (rng.bernoulli(0.7)) a.machine = "archer2";
  a.replicates = static_cast<std::size_t>(rng.uniform_int(1, 40));
  a.headline.mean_kw = rng.uniform(500.0, 4000.0);
  a.headline.mean_before_kw = rng.uniform(500.0, 4000.0);
  a.headline.mean_after_kw = rng.uniform(500.0, 4000.0);
  a.headline.mean_utilisation = rng.uniform(0.0, 1.0);
  a.headline.window_energy_kwh = rng.uniform(0.0, 1e6);
  a.headline.completed_jobs = static_cast<double>(rng.uniform_int(0, 9999));
  const std::size_t cps = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < cps; ++i) {
    a.change_points.push_back({SimTime(rng.uniform(0.0, 1e6)),
                               rng.uniform(500.0, 4000.0),
                               rng.uniform(500.0, 4000.0),
                               rng.bernoulli(0.5)});
  }
  const std::size_t nch = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t c = 0; c < nch; ++c) {
    const auto samples = static_cast<std::size_t>(rng.uniform_int(1, 300));
    TimeSeries s("kW");
    double t = rng.uniform(0.0, 1000.0);
    for (std::size_t i = 0; i < samples; ++i) {
      // Non-decreasing times (repeats allowed), arbitrary finite values.
      t += rng.bernoulli(0.1) ? 0.0 : rng.uniform(1.0, 3600.0);
      s.append(SimTime(t), rng.uniform(-100.0, 5000.0));
    }
    a.channels.push_back(aggregate_channel("ch" + std::to_string(c), s,
                                           rng.bernoulli(0.7)));
  }
  if (!a.channels.empty()) {
    a.window_start = SimTime(0.0);
    a.window_end = SimTime(2e6);
  }
  return a;
}

TEST(HcafFormat, RandomArtifactsRoundTripByteIdentically) {
  for (std::size_t case_i = 0; case_i < 40; ++case_i) {
    Rng rng(0x4CAF0001ULL + case_i * 0x9E3779B9ULL);
    std::vector<RunArtifact> batch;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(
          random_artifact(rng, "case" + std::to_string(case_i) + "-s" +
                                   std::to_string(i)));
    }
    SCOPED_TRACE("case " + std::to_string(case_i));
    expect_round_trip(batch);
  }
}

}  // namespace
}  // namespace hpcem::colstore
