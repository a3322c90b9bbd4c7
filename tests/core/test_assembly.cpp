// FacilityAssembly: declarative ScenarioSpec -> canonical configuration,
// composition and armed simulator.
#include "core/assembly.hpp"

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/scenario_library.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

SimTime t0() { return sim_time_from_date({2022, 3, 1}); }

ScenarioSpec testbed_spec() {
  ScenarioSpec spec;
  spec.name = "testbed";
  spec.machine = MachineModel::kTestbed;
  spec.window_start = t0();
  spec.window_end = t0() + Duration::days(14.0);
  spec.warmup = Duration::days(7.0);
  spec.seed = 99;
  return spec;
}

TEST(Assembly, MatchesHandAssembledSimulatorBitForBit) {
  // The assembly must reproduce exactly what the copy-pasted setup in the
  // old benches produced: facility -> config -> simulator -> policy/change
  // arming, same seed, same everything.
  ScenarioSpec spec = testbed_spec();
  const SimTime change = t0() + Duration::days(7.0);
  spec.changes.push_back(
      {change, OperatingPolicy::performance_determinism()});
  const FacilityAssembly assembly(spec);
  const auto a = assembly.run_simulator();

  const Facility facility = Facility::testbed();
  FacilitySimulator b(facility.catalog(), facility.sim_config(99));
  b.set_policy(OperatingPolicy::baseline());
  b.schedule_policy_change(change,
                           OperatingPolicy::performance_determinism());
  b.run(t0() - Duration::days(7.0), t0() + Duration::days(14.0));

  const auto& sa = a->telemetry().channel(channels::kCabinetKw);
  const auto& sb = b.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].value, sb[i].value);
  }
  EXPECT_EQ(a->completed().size(), b.completed().size());
}

TEST(Assembly, SpecOverridesReachTheSimConfig) {
  ScenarioSpec spec = testbed_spec();
  spec.discipline = QueueDiscipline::kPriority;
  spec.sample_interval = Duration::minutes(10.0);
  spec.metering_noise_sigma = 0.0;
  spec.offered_load = 0.5;
  spec.user_turbo_pin_fraction = 0.25;
  const FacilityAssembly assembly(spec);
  const FacilitySimConfig cfg = assembly.sim_config(42);
  EXPECT_EQ(cfg.sched_discipline, QueueDiscipline::kPriority);
  EXPECT_EQ(cfg.sample_interval.sec(), Duration::minutes(10.0).sec());
  EXPECT_EQ(cfg.metering_noise_sigma, 0.0);
  EXPECT_EQ(cfg.gen.offered_load, 0.5);
  EXPECT_EQ(cfg.gen.user_turbo_pin_fraction, 0.25);
  EXPECT_EQ(cfg.seed, 42u);
}

TEST(Assembly, MachineModelsSelectTheRightInventory) {
  ScenarioSpec spec = testbed_spec();
  spec.machine = MachineModel::kMicro;
  EXPECT_EQ(FacilityAssembly(spec).facility().inventory().compute_nodes,
            64u);
  spec.machine = MachineModel::kTestbed;
  EXPECT_EQ(FacilityAssembly(spec).facility().inventory().compute_nodes,
            512u);
  spec.machine = MachineModel::kArcher2;
  EXPECT_EQ(FacilityAssembly(spec).facility().inventory().compute_nodes,
            5860u);
}

TEST(Assembly, CannedSpecsMatchThePaperCampaigns) {
  const ScenarioSpec f1 = load_named_scenario("figure1");
  EXPECT_EQ(f1.window_start.sec(),
            sim_time_from_date({2021, 12, 1}).sec());
  EXPECT_EQ(f1.window_end.sec(), sim_time_from_date({2022, 5, 1}).sec());
  EXPECT_TRUE(f1.changes.empty());

  const ScenarioSpec f2 = load_named_scenario("figure2");
  ASSERT_EQ(f2.changes.size(), 1u);
  EXPECT_EQ(f2.changes[0].at.sec(),
            sim_time_from_date({2022, 5, 9}).sec());
  ASSERT_TRUE(f2.first_change_in_window().has_value());

  const ScenarioSpec f3 = load_named_scenario("figure3");
  ASSERT_EQ(f3.changes.size(), 1u);
  EXPECT_EQ(f3.changes[0].at.sec(),
            sim_time_from_date({2022, 12, 1}).sec());
  EXPECT_EQ(f3.policy.bios_mode, DeterminismMode::kPerformanceDeterminism);
}

TEST(Assembly, FirstChangeInWindowPicksTheEarliestInteriorChange) {
  ScenarioSpec spec = testbed_spec();
  // Pre-window change: not a split point.
  spec.changes.push_back({t0() - Duration::days(1.0),
                          OperatingPolicy::performance_determinism()});
  EXPECT_FALSE(spec.first_change_in_window().has_value());
  spec.changes.push_back({t0() + Duration::days(10.0),
                          OperatingPolicy::low_frequency_default()});
  spec.changes.push_back({t0() + Duration::days(5.0),
                          OperatingPolicy::performance_determinism()});
  ASSERT_TRUE(spec.first_change_in_window().has_value());
  EXPECT_EQ(spec.first_change_in_window()->sec(),
            (t0() + Duration::days(5.0)).sec());
}

TEST(Assembly, MaintenanceWindowsAreArmed) {
  ScenarioSpec spec = testbed_spec();
  spec.machine = MachineModel::kMicro;
  spec.warmup = Duration::days(1.0);
  spec.window_end = t0() + Duration::days(7.0);
  const SimTime block = t0() + Duration::days(3.0);
  const SimTime resume = block + Duration::hours(12.0);
  spec.maintenance.push_back({block, resume});
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  for (const auto& r : sim->completed()) {
    EXPECT_FALSE(r.start_time >= block && r.start_time < resume);
  }
}

TEST(Assembly, RunCampaignOverSpecsKeepsOrderAndMerges) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 3; ++i) {
    ScenarioSpec spec = testbed_spec();
    spec.machine = MachineModel::kMicro;
    spec.name = "spec-" + std::to_string(i);
    spec.warmup = Duration::days(1.0);
    spec.window_end = t0() + Duration::days(7.0);
    specs.push_back(std::move(spec));
  }
  CampaignConfig cfg;
  cfg.workers = 2;
  cfg.seeds_per_scenario = 2;
  const CampaignResult r = run_campaign(specs, cfg);
  ASSERT_EQ(r.scenarios.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& out = r.scenarios[static_cast<std::size_t>(i)];
    EXPECT_EQ(out.name, "spec-" + std::to_string(i));
    EXPECT_EQ(out.replicates, 2u);
    EXPECT_GT(out.mean_kw.mean(), 0.0);
  }
  EXPECT_EQ(r.total_runs, 6u);
}

TEST(Assembly, OneReplicateCampaignRepeatsTheSingleRun) {
  // Replicate 0 runs at the spec's own seed, so a campaign row is the
  // single run of the same spec, bit for bit.
  const ScenarioSpec spec = load_named_scenario("ci-smoke");
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  const SimTime a = spec.window_start;
  const SimTime b = spec.window_end;
  const double mean_kw =
      sim->telemetry().series(sim->cabinet_channel()).slice(a, b).mean();
  std::size_t jobs = 0;
  for (const auto& r : sim->completed()) {
    if (r.end_time >= a && r.end_time < b) ++jobs;
  }
  ASSERT_GT(jobs, 0u);

  CampaignConfig cfg;
  cfg.workers = 1;
  const CampaignResult r = run_campaign({spec}, cfg);
  ASSERT_EQ(r.scenarios.size(), 1u);
  EXPECT_EQ(r.scenarios[0].mean_kw.mean(), mean_kw);
  EXPECT_EQ(r.scenarios[0].completed_jobs.mean(), static_cast<double>(jobs));
}

TEST(Assembly, PlantExtrasAppendSources) {
  ScenarioSpec spec = testbed_spec();
  spec.machine = MachineModel::kMicro;
  spec.model_cdus = true;
  spec.model_filesystems = true;
  spec.cooling_outdoor_c = 12.0;
  spec.warmup = Duration::days(1.0);
  spec.window_end = t0() + Duration::days(3.0);
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  EXPECT_TRUE(sim->telemetry().find(channels::kCduKw).has_value());
  EXPECT_TRUE(sim->telemetry().find(channels::kFilesystemKw).has_value());
  EXPECT_TRUE(sim->telemetry().find(channels::kCoolingKw).has_value());
}

TEST(Assembly, ValidationErrors) {
  ScenarioSpec spec = testbed_spec();
  spec.window_end = spec.window_start;
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.warmup = Duration::days(-1.0);
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.maintenance.push_back({t0() + Duration::days(2.0),
                              t0() + Duration::days(1.0)});
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.sample_interval = Duration::seconds(0.0);
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.metering_noise_sigma = -0.1;
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.offered_load = 0.0;
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);

  spec = testbed_spec();
  spec.user_turbo_pin_fraction = 1.5;
  EXPECT_THROW(FacilityAssembly{spec}, InvalidArgument);
}

}  // namespace
}  // namespace hpcem
