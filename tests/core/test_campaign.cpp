// run_campaign: parallel N-spec x M-seed execution with a merged result
// that is bit-identical for every worker count (the acceptance requirement
// of the campaign layer).
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/run_artifact.hpp"
#include "core/scenario_library.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

/// A week on the 64-node machine after a one-day warm-up.
ScenarioSpec micro_spec(const std::string& name, double offset_days = 0.0) {
  ScenarioSpec s;
  s.name = name;
  s.machine = MachineModel::kMicro;
  s.window_start =
      sim_time_from_date({2022, 3, 1}) + Duration::days(offset_days);
  s.window_end = s.window_start + Duration::days(7.0);
  s.warmup = Duration::days(1.0);
  return s;
}

TEST(CampaignTest, MergedResultBitIdenticalAcrossWorkerCounts) {
  const std::vector<ScenarioSpec> specs = {
      micro_spec("a"), micro_spec("b", 3.0), micro_spec("c", 6.0)};

  auto run_with = [&](std::size_t workers) {
    CampaignConfig cfg;
    cfg.workers = workers;
    cfg.seeds_per_scenario = 3;
    return run_campaign(specs, cfg);
  };

  const CampaignResult r1 = run_with(1);
  const CampaignResult r4 = run_with(4);
  const CampaignResult r8 = run_with(8);

  ASSERT_EQ(r1.scenarios.size(), 3u);
  for (const CampaignResult* r : {&r4, &r8}) {
    ASSERT_EQ(r->scenarios.size(), r1.scenarios.size());
    for (std::size_t i = 0; i < r1.scenarios.size(); ++i) {
      const ScenarioOutcome& x = r1.scenarios[i];
      const ScenarioOutcome& y = r->scenarios[i];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.replicates, y.replicates);
      // Bit-identical, not merely close: exact double equality.
      EXPECT_EQ(x.mean_kw.mean(), y.mean_kw.mean());
      EXPECT_EQ(x.mean_kw.variance(), y.mean_kw.variance());
      EXPECT_EQ(x.mean_before_kw.mean(), y.mean_before_kw.mean());
      EXPECT_EQ(x.mean_after_kw.mean(), y.mean_after_kw.mean());
      EXPECT_EQ(x.mean_utilisation.mean(), y.mean_utilisation.mean());
      EXPECT_EQ(x.window_energy_kwh.mean(), y.window_energy_kwh.mean());
      EXPECT_EQ(x.completed_jobs.mean(), y.completed_jobs.mean());
    }
  }
  EXPECT_EQ(r1.workers_used, 1u);
  EXPECT_EQ(r8.workers_used, 8u);
  EXPECT_EQ(r1.total_runs, 9u);
}

// The campaign path end to end with obs collecting wall-clock timings on
// every worker: the artifact bytes are the same at 1 and 4 workers once
// the `obs` member (the timings themselves) is cleared.
TEST(CampaignTest, ArtifactBytesWorkerCountInvariantWithObsOn) {
  ScenarioSpec spec = load_named_scenario("figure2");
  spec.machine = MachineModel::kMicro;
  spec.name = "early";
  spec.window_end = spec.window_start + Duration::days(14.0);
  spec.warmup = Duration::days(2.0);
  ScenarioSpec later = spec;
  later.name = "later";
  later.window_start = later.window_start + Duration::days(7.0);
  later.window_end = later.window_end + Duration::days(7.0);
  const std::vector<ScenarioSpec> specs = {spec, later};

  const auto bytes_with = [&specs](std::size_t workers) {
    CampaignConfig cfg;
    cfg.workers = workers;
    cfg.seeds_per_scenario = 2;
    std::string bytes;
    for (RunArtifact& a :
         make_campaign_artifacts(run_campaign(specs, cfg), specs)) {
      EXPECT_FALSE(a.obs.is_null());  // collection really ran
      a.obs = JsonValue();
      bytes += a.to_json_text();
    }
    return bytes;
  };
  obs::set_enabled(true);
  obs::set_deterministic(false);
  obs::reset_collected();
  const std::string one = bytes_with(1);
  const std::string four = bytes_with(4);
  obs::set_enabled(false);
  obs::reset_collected();
  EXPECT_EQ(one, four);
}

TEST(CampaignTest, OutcomesKeepInputScenarioOrder) {
  const std::vector<ScenarioSpec> specs = {
      micro_spec("zulu"), micro_spec("alpha", 2.0), micro_spec("mike", 4.0)};
  CampaignConfig cfg;
  cfg.workers = 4;
  const CampaignResult r = run_campaign(specs, cfg);
  ASSERT_EQ(r.scenarios.size(), 3u);
  EXPECT_EQ(r.scenarios[0].name, "zulu");
  EXPECT_EQ(r.scenarios[1].name, "alpha");
  EXPECT_EQ(r.scenarios[2].name, "mike");
}

TEST(CampaignTest, ReplicatesAccumulateIntoTheOutcome) {
  CampaignConfig cfg;
  cfg.workers = 2;
  cfg.seeds_per_scenario = 4;
  const CampaignResult r = run_campaign({micro_spec("a")}, cfg);
  ASSERT_EQ(r.scenarios.size(), 1u);
  const ScenarioOutcome& out = r.scenarios[0];
  EXPECT_EQ(out.replicates, 4u);
  EXPECT_EQ(out.mean_kw.count(), 4u);
  // Different seeds genuinely differ (metering noise + workload draws)...
  EXPECT_GT(out.mean_kw.stddev(), 0.0);
  // ...but stay in a physically tight band for the same machine.
  EXPECT_LT(out.mean_kw.stddev(), 0.05 * out.mean_kw.mean());
  EXPECT_GT(out.mean_utilisation.mean(), 0.5);
}

TEST(CampaignTest, ReplicateSeedsDependOnlyOnTheScenarioSeed) {
  // Replicate 0 is the scenario's own seed; later ones are distinct across
  // a grid of (seed, replicate) and stable across calls.
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    EXPECT_EQ(replicate_seed(seed, 0), seed);
    for (std::size_t r = 1; r <= 16; ++r) {
      EXPECT_EQ(replicate_seed(seed, r), replicate_seed(seed, r));
      seen.insert(replicate_seed(seed, r));
    }
  }
  EXPECT_EQ(seen.size(), 256u);

  // A scenario's row does not depend on its position in the campaign:
  // the same scenario first and last gives bit-identical outcomes.
  ScenarioSpec first = micro_spec("x");
  first.seed = 77;
  const ScenarioSpec other = micro_spec("y", 2.0);
  CampaignConfig cfg;
  cfg.workers = 2;
  cfg.seeds_per_scenario = 2;
  const CampaignResult r = run_campaign({first, other, first}, cfg);
  EXPECT_EQ(r.scenarios[0].mean_kw.mean(), r.scenarios[2].mean_kw.mean());
  EXPECT_EQ(r.scenarios[0].mean_kw.variance(),
            r.scenarios[2].mean_kw.variance());
  EXPECT_EQ(r.scenarios[0].completed_jobs.mean(),
            r.scenarios[2].completed_jobs.mean());
}

TEST(CampaignTest, SplitAtSeparatesBeforeAndAfterMeans) {
  // A policy change inside the window splits the means, so before != after.
  ScenarioSpec s = micro_spec("split");
  s.changes = {{s.window_start + Duration::days(3.0),
                OperatingPolicy::low_frequency_default()}};
  CampaignConfig cfg;
  cfg.workers = 2;
  const CampaignResult r = run_campaign({s}, cfg);
  const ScenarioOutcome& out = r.scenarios[0];
  EXPECT_LT(out.mean_after_kw.mean(), out.mean_before_kw.mean() * 0.95);
}

TEST(CampaignTest, TaskExceptionPropagatesAfterDraining) {
  // One sample at the run start, the next a month later: the window holds
  // no sample, so every replicate of "bad" throws on a worker.
  ScenarioSpec bad = micro_spec("bad");
  bad.sample_interval = Duration::days(30.0);
  CampaignConfig cfg;
  cfg.workers = 4;
  cfg.seeds_per_scenario = 2;
  try {
    (void)run_campaign({micro_spec("good"), bad}, cfg);
    FAIL() << "expected StateError";
  } catch (const StateError& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_campaign: scenario 'bad' produced no window samples");
  }
}

TEST(CampaignTest, ValidationErrors) {
  CampaignConfig cfg;
  cfg.seeds_per_scenario = 0;
  EXPECT_THROW((void)run_campaign({micro_spec("a")}, cfg), InvalidArgument);

  EXPECT_THROW((void)run_campaign({}), InvalidArgument);

  ScenarioSpec bad_window = micro_spec("bad-window");
  bad_window.window_end = bad_window.window_start;
  EXPECT_THROW((void)run_campaign({bad_window}), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
