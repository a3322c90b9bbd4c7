// HCAF round-trip properties: for any representable RunArtifact,
// write_shard_bytes -> read_shard_bytes -> to_artifact reconstructs a
// struct whose to_json_text() is byte-identical to the input's — HCAF v2
// is exactly as expressive as JSON schema v3.  Exercised over seeded
// random artifacts, hand-built edge cases (aggregate-only channels,
// empty shards, multi-scenario shards, channels on different clocks) and
// the committed ci-smoke artifact (the obs-bearing, scenario-library-
// derived case CI serves).  Also pinned here: the v2 layout stores one
// clock per distinct time column and no prefix sums, and the prefix sums
// ArtifactStore builds at ingest are bit-equal to v1's stored ones.
#include "colstore/hcaf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "colstore/bytes.hpp"
#include "colstore/format.hpp"
#include "core/run_artifact.hpp"
#include "serve/artifact_store.hpp"
#include "telemetry/timeseries.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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
  a.headline.mean_kw = PowerKw{s.summary().mean};
  a.headline.window_energy_kwh = EnergyKwh{s.integrate() / 3600.0};
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
  a.headline.mean_before_kw = PowerKw{3100.0};
  a.headline.mean_after_kw = PowerKw{2800.0};
  a.headline.mean_utilisation = 0.87;
  a.change_points.push_back(
      {SimTime(86400.0), PowerKw{3100.0}, PowerKw{2800.0}, /*detected=*/true});
  a.change_points.push_back(
      {SimTime(172800.0), PowerKw{2800.0}, PowerKw{2750.0},
       /*detected=*/false});
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

RunArtifact ci_smoke_artifact() {
  std::ifstream in(HPCEM_CI_ARTIFACT, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << HPCEM_CI_ARTIFACT;
  std::ostringstream buf;
  buf << in.rdbuf();
  return RunArtifact::from_json_text(buf.str());
}

TEST(HcafFormat, RoundTripsTheCommittedCiSmokeArtifact) {
  expect_round_trip({ci_smoke_artifact()});
}

TEST(HcafFormat, CiSmokeShardHoldsOneClockAndFollowsTheLayout) {
  // Every channel of a simulated run is sampled at the same instants, so
  // its shard stores one time column; the file size is the v2 layout
  // formula term by term, with no per-channel times and no prefix sums.
  const RunArtifact a = ci_smoke_artifact();
  const std::string bytes = write_shard_bytes({a});
  const std::vector<ShardScenario> scenarios = read_shard_bytes(bytes, "ci");
  ASSERT_EQ(scenarios.size(), 1u);
  const ShardScenario& s = scenarios[0];
  ASSERT_EQ(s.clocks.size(), 1u);
  const std::size_t n = s.clocks[0].size();
  ASSERT_GT(n, 0u);
  ASSERT_GE(a.channels.size(), 2u);
  for (const ShardChannel& ch : s.channels) {
    EXPECT_TRUE(ch.has_series()) << ch.aggregate.name;
    EXPECT_EQ(ch.clock, 0u) << ch.aggregate.name;
    EXPECT_EQ(ch.values.size(), n) << ch.aggregate.name;
    // The clock and values are the one copy of the samples.
    EXPECT_TRUE(ch.aggregate.series.empty()) << ch.aggregate.name;
  }

  const auto str = [](const std::string& x) { return 4 + x.size(); };
  const std::size_t blocks = 8 * n * (1 + a.channels.size());
  std::size_t dir = 4;  // scenario count
  dir += str(a.scenario) + str(a.source) + str(a.machine);
  dir += 8 + 8 + 8 + 6 * 8;  // window, replicates, headline
  dir += 4 + a.change_points.size() * (3 * 8 + 1);
  dir += str(a.obs.is_null() ? std::string() : a.obs.dump(0));
  dir += 4 + 16;  // one clock reference
  dir += 4;       // channel count
  for (const ChannelAggregate& c : a.channels) {
    dir += str(c.name) + str(c.unit) + 8 + 6 * 8;  // aggregates
    dir += 4 + 16;  // clock index, value-block reference
  }
  EXPECT_EQ(bytes.size(), kHeaderSize + blocks + dir + kFooterSize);
}

TEST(HcafFormat, ChannelsOnDifferentTimesRoundTripWithTwoClocks) {
  // Two time columns in one artifact: 600-s and 1,200-s sampling.  The
  // third channel repeats the first one's times bit for bit and shares its
  // clock; a column that differs in one sign bit (-0.0 vs 0.0) does not.
  RunArtifact a = make_artifact("two-clocks", 48, true);
  const TimeSeries slow = ramp_series(30, 300.0, 1200.0);
  a.channels.push_back(aggregate_channel("slow_kw", slow, true));
  a.channels.push_back(aggregate_channel("fast_again", ramp_series(48), true));
  a.channels.push_back(aggregate_channel("agg_only", slow, false));
  const std::string bytes = write_shard_bytes({a});
  const std::vector<ShardScenario> scenarios = read_shard_bytes(bytes, "two");
  ASSERT_EQ(scenarios.size(), 1u);
  const ShardScenario& s = scenarios[0];
  ASSERT_EQ(s.clocks.size(), 2u);
  EXPECT_EQ(s.clocks[0].size(), 48u);
  EXPECT_EQ(s.clocks[1].size(), 30u);
  ASSERT_EQ(s.channels.size(), 4u);
  EXPECT_EQ(s.channels[0].clock, 0u);
  EXPECT_EQ(s.channels[1].clock, 1u);
  EXPECT_EQ(s.channels[2].clock, 0u);
  EXPECT_FALSE(s.channels[3].has_series());
  expect_round_trip({a});

  RunArtifact sign = make_artifact("signed-zero", 4, true);
  ChannelAggregate neg = sign.channels[0];
  neg.name = "neg_zero_kw";
  neg.series[0].time = SimTime(-0.0);
  neg.first_time = SimTime(-0.0);
  sign.channels.push_back(neg);
  const std::string sign_bytes = write_shard_bytes({sign});
  EXPECT_EQ(read_shard_bytes(sign_bytes, "sign")[0].clocks.size(), 2u);
  expect_round_trip({sign});
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
  a.headline.mean_kw = PowerKw{rng.uniform(500.0, 4000.0)};
  a.headline.mean_before_kw = PowerKw{rng.uniform(500.0, 4000.0)};
  a.headline.mean_after_kw = PowerKw{rng.uniform(500.0, 4000.0)};
  a.headline.mean_utilisation = rng.uniform(0.0, 1.0);
  a.headline.window_energy_kwh = EnergyKwh{rng.uniform(0.0, 1e6)};
  a.headline.completed_jobs = static_cast<double>(rng.uniform_int(0, 9999));
  const std::size_t cps = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < cps; ++i) {
    a.change_points.push_back({SimTime(rng.uniform(0.0, 1e6)),
                               PowerKw{rng.uniform(500.0, 4000.0)},
                               PowerKw{rng.uniform(500.0, 4000.0)},
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

/// v1's writer arithmetic (`build_columns`, which stored these prefixes
/// in the shard), kept as the reference the ingest-built prefixes must
/// match bit for bit.
std::pair<std::vector<double>, std::vector<double>> v1_prefix_sums(
    const std::vector<Sample>& series) {
  if (series.empty()) return {};
  std::vector<double> value_sum{0.0};
  std::vector<double> integral{0.0};
  CompensatedSum vs;
  CompensatedSum in;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) {
      in.add(0.5 * (series[i].value + series[i - 1].value) *
             (series[i].time.sec() - series[i - 1].time.sec()));
    }
    vs.add(series[i].value);
    value_sum.push_back(vs.value());
    integral.push_back(in.value());
  }
  return {value_sum, integral};
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "slot " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(HcafFormat, IngestBuildsPrefixSumsBitEqualToTheSeries) {
  // The shard stores no prefix sums; ArtifactStore builds them at ingest.
  // Served answers stay byte-identical only if they are the very doubles
  // v1 computed from the series and stored.
  std::vector<RunArtifact> artifacts = {ci_smoke_artifact()};
  for (std::size_t case_i = 0; case_i < 20; ++case_i) {
    Rng rng(0x4CAF0002ULL + case_i * 0x9E3779B9ULL);
    RunArtifact a = random_artifact(rng, "prefix" + std::to_string(case_i));
    std::erase_if(a.channels, [](const ChannelAggregate& c) {
      return c.series.empty();  // the store rejects aggregate-only channels
    });
    artifacts.push_back(std::move(a));
  }
  for (const RunArtifact& a : artifacts) {
    SCOPED_TRACE(a.scenario);
    serve::ArtifactStore store;
    store.add(a);
    const serve::StoredScenario& s = store.at(a.scenario);
    for (const ChannelAggregate& c : a.channels) {
      SCOPED_TRACE(c.name);
      const serve::StoredChannel* ch = s.find_channel(c.name);
      ASSERT_NE(ch, nullptr);
      const auto [value_sum, integral] = v1_prefix_sums(c.series);
      expect_bit_equal(ch->prefix_value_sum, value_sum);
      expect_bit_equal(ch->prefix_integral, integral);
    }
  }
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
