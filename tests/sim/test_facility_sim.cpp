// Integration tests for the facility simulator on a scaled-down machine
// (same catalogue and physics, fewer nodes, so each test runs in ~tens of
// milliseconds).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "core/scenario_library.hpp"
#include "sim/facility_sim.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

FacilitySimConfig small_config(std::uint64_t seed = 1) {
  FacilitySimConfig cfg;
  cfg.inventory.compute_nodes = 512;
  cfg.inventory.switches = 64;
  cfg.inventory.cabinets = 2;
  cfg.gen.offered_load = 0.91;
  cfg.gen.max_job_nodes = 128;
  cfg.seed = seed;
  return cfg;
}

class FacilitySimTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);

  static SimTime start() { return sim_time_from_date({2022, 3, 1}); }
};

TEST_F(FacilitySimTest, ProducesAllTelemetryChannels) {
  FacilitySimulator sim(cat_, small_config());
  sim.run(start(), start() + Duration::days(7.0));
  for (const char* ch :
       {channels::kCabinetKw, channels::kNodeFleetKw, channels::kUtilisation,
        channels::kQueueLength, channels::kRunningJobs, channels::kSwitchKw,
        channels::kOverheadKw}) {
    ASSERT_TRUE(sim.telemetry().find(ch).has_value()) << ch;
    EXPECT_GT(sim.telemetry().channel(ch).size(), 300u) << ch;
  }
}

TEST_F(FacilitySimTest, DeterministicForSameSeed) {
  FacilitySimulator a(cat_, small_config(7));
  FacilitySimulator b(cat_, small_config(7));
  a.run(start(), start() + Duration::days(5.0));
  b.run(start(), start() + Duration::days(5.0));
  const auto& sa = a.telemetry().channel(channels::kCabinetKw);
  const auto& sb = b.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_DOUBLE_EQ(sa[i].value, sb[i].value);
  }
  EXPECT_EQ(a.completed().size(), b.completed().size());
}

TEST_F(FacilitySimTest, UtilisationReachesSteadyStateAboveEighty) {
  FacilitySimulator sim(cat_, small_config(3));
  sim.run(start(), start() + Duration::days(21.0));
  // Skip the 7-day fill-up ramp.
  const double util = sim.mean_utilisation(start() + Duration::days(7.0),
                                           start() + Duration::days(21.0));
  EXPECT_GT(util, 0.80);
  EXPECT_LE(util, 1.0);
}

TEST_F(FacilitySimTest, CabinetPowerBoundedByPhysicalEnvelope) {
  FacilitySimulator sim(cat_, small_config(5));
  sim.run(start(), start() + Duration::days(10.0));
  const auto& cab = sim.telemetry().channel(channels::kCabinetKw);
  // Envelope: all idle vs all nodes at the hottest app's power-det draw.
  const double idle_floor_kw =
      (512.0 * 230.0 + 64.0 * 200.0 + 2.0 * 6500.0) / 1000.0;
  const double hot_ceiling_kw =
      (512.0 * 700.0 + 64.0 * 250.0 + 2.0 * 8700.0) / 1000.0;
  for (const auto& s : cab.samples()) {
    ASSERT_GE(s.value, idle_floor_kw * 0.95);
    ASSERT_LE(s.value, hot_ceiling_kw);
  }
}

TEST_F(FacilitySimTest, CompletedJobsCarryConsistentRecords) {
  FacilitySimulator sim(cat_, small_config(9));
  sim.run(start(), start() + Duration::days(10.0));
  ASSERT_GT(sim.completed().size(), 100u);
  for (const auto& r : sim.completed()) {
    ASSERT_GE(r.start_time.sec(), r.spec.submit_time.sec());
    ASSERT_GT(r.end_time.sec(), r.start_time.sec());
    ASSERT_GT(r.node_power_w.w(), 230.0);
    ASSERT_LT(r.node_power_w.w(), 800.0);
    // Energy = nodes * node power * runtime.
    const double expected_kwh = r.node_power_w.w() *
                                static_cast<double>(r.spec.nodes) *
                                r.runtime().hrs() / 1000.0;
    ASSERT_NEAR(r.node_energy.to_kwh(), expected_kwh,
                1e-6 * expected_kwh + 1e-9);
  }
}

TEST_F(FacilitySimTest, ZeroNoiseSkipsTheDrawWithoutPerturbingTheRun) {
  // With metering_noise_sigma == 0 the Gaussian draw is skipped entirely.
  // That must be unobservable outside telemetry noise: sample() is the
  // only consumer of the simulator's own rng during the run (the
  // generator runs on a split stream), so the workload — every submit,
  // start and finish — is identical whether or not the draw happens.
  auto noiseless = small_config(21);
  noiseless.metering_noise_sigma = 0.0;
  auto noisy = small_config(21);
  noisy.metering_noise_sigma = 0.006;
  FacilitySimulator a(cat_, noiseless);
  FacilitySimulator b(cat_, noisy);
  a.run(start(), start() + Duration::days(5.0));
  b.run(start(), start() + Duration::days(5.0));
  ASSERT_EQ(a.completed().size(), b.completed().size());
  for (std::size_t i = 0; i < a.completed().size(); ++i) {
    const JobRecord& ra = a.completed()[i];
    const JobRecord& rb = b.completed()[i];
    ASSERT_EQ(ra.spec.id, rb.spec.id);
    ASSERT_EQ(ra.start_time, rb.start_time);
    ASSERT_EQ(ra.end_time, rb.end_time);
    ASSERT_EQ(ra.node_power_w, rb.node_power_w);
  }
  // And the noiseless meter reads the exact source sum: the same sample
  // instants, each a noise-free value (factor exactly 1.0).
  const auto& ca = a.telemetry().channel(channels::kCabinetKw);
  const auto& cb = b.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(ca.size(), cb.size());
  bool any_noise_difference = false;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i].time, cb[i].time);
    any_noise_difference =
        any_noise_difference || ca[i].value != cb[i].value;
  }
  EXPECT_TRUE(any_noise_difference);
}

TEST_F(FacilitySimTest, PolicyChangeAppliesToNewJobsOnly) {
  auto cfg = small_config(11);
  FacilitySimulator sim(cat_, cfg);
  sim.set_policy(OperatingPolicy::baseline());
  const SimTime change = start() + Duration::days(10.0);
  sim.schedule_policy_change(change, OperatingPolicy::low_frequency_default());
  sim.run(start(), start() + Duration::days(20.0));

  for (const auto& r : sim.completed()) {
    if (r.start_time < change) {
      EXPECT_EQ(r.mode, DeterminismMode::kPowerDeterminism);
    } else {
      EXPECT_EQ(r.mode, DeterminismMode::kPerformanceDeterminism);
    }
  }
  // The power level must drop across the change.
  const PowerKw before =
      sim.mean_cabinet_kw(start() + Duration::days(5.0), change);
  const PowerKw after = sim.mean_cabinet_kw(change + Duration::days(3.0),
                                            start() + Duration::days(20.0));
  EXPECT_LT(after, before * 0.92);
}

TEST_F(FacilitySimTest, PreWindowPolicyChangeAppliesAtWindowStart) {
  // A change scheduled before the run window must not be dropped: it arms
  // the policy at the window start, exactly as if set_policy had been
  // called — bit-identical telemetry included.
  FacilitySimulator armed(cat_, small_config(41));
  armed.set_policy(OperatingPolicy::baseline());
  armed.schedule_policy_change(start() - Duration::days(3.0),
                               OperatingPolicy::performance_determinism());

  FacilitySimulator direct(cat_, small_config(41));
  direct.set_policy(OperatingPolicy::performance_determinism());

  armed.run(start(), start() + Duration::days(5.0));
  direct.run(start(), start() + Duration::days(5.0));

  for (const auto& r : armed.completed()) {
    EXPECT_EQ(r.mode, DeterminismMode::kPerformanceDeterminism);
  }
  const auto& sa = armed.telemetry().channel(channels::kCabinetKw);
  const auto& sb = direct.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].value, sb[i].value);
  }
}

TEST_F(FacilitySimTest, LatestOfSeveralPreWindowChangesWins) {
  FacilitySimulator sim(cat_, small_config(43));
  sim.set_policy(OperatingPolicy::baseline());
  sim.schedule_policy_change(start() - Duration::days(5.0),
                             OperatingPolicy::low_frequency_default());
  sim.schedule_policy_change(start() - Duration::days(2.0),
                             OperatingPolicy::performance_determinism());
  sim.run(start(), start() + Duration::days(3.0));
  ASSERT_GT(sim.completed().size(), 10u);
  for (const auto& r : sim.completed()) {
    // performance_determinism keeps the turbo P-state; low_frequency would
    // have moved un-pinned jobs to kMid.
    EXPECT_EQ(r.mode, DeterminismMode::kPerformanceDeterminism);
    EXPECT_EQ(r.pstate, pstates::kHighTurbo);
  }
}

TEST_F(FacilitySimTest, UserPinnedJobsKeepTurboAfterChange) {
  auto cfg = small_config(13);
  cfg.gen.user_turbo_pin_fraction = 0.3;
  FacilitySimulator sim(cat_, cfg);
  sim.set_policy(OperatingPolicy::low_frequency_default());
  sim.run(start(), start() + Duration::days(7.0));
  std::size_t turbo = 0, low = 0;
  for (const auto& r : sim.completed()) {
    if (r.spec.user_pstate) {
      EXPECT_EQ(r.pstate, pstates::kHighTurbo);
      ++turbo;
    } else if (r.pstate == pstates::kMid) {
      ++low;
    }
  }
  EXPECT_GT(turbo, 0u);
  EXPECT_GT(low, 0u);
}

TEST_F(FacilitySimTest, RunTwiceRejected) {
  FacilitySimulator sim(cat_, small_config());
  sim.run(start(), start() + Duration::days(1.0));
  EXPECT_THROW(sim.run(start() + Duration::days(2.0),
                       start() + Duration::days(3.0)),
               StateError);
}

TEST_F(FacilitySimTest, PolicyChangeAfterRunRejected) {
  FacilitySimulator sim(cat_, small_config());
  sim.run(start(), start() + Duration::days(1.0));
  EXPECT_THROW(sim.schedule_policy_change(start() + Duration::days(2.0),
                                          OperatingPolicy::baseline()),
               StateError);
}

TEST_F(FacilitySimTest, InvalidConfigRejected) {
  auto cfg = small_config();
  cfg.sample_interval = Duration::seconds(0.0);
  EXPECT_THROW(FacilitySimulator(cat_, cfg), InvalidArgument);
  cfg = small_config();
  cfg.metering_noise_sigma = -0.1;
  EXPECT_THROW(FacilitySimulator(cat_, cfg), InvalidArgument);
}

TEST_F(FacilitySimTest, CabinetEnergyIntegratesToPlausibleTotal) {
  FacilitySimulator sim(cat_, small_config(17));
  const Duration span = Duration::days(7.0);
  sim.run(start(), start() + span);
  const Energy e = sim.cabinet_energy();
  const PowerKw mean_kw = sim.mean_cabinet_kw(start(), start() + span);
  EXPECT_NEAR(e.to_kwh(), (mean_kw * span).kwh(), 0.02 * e.to_kwh());
}

TEST_F(FacilitySimTest, DemandScaleReducesArrivalsUnderSlowPolicy) {
  // Under the 2.0 GHz default with no revert the mix is ~9% slower, so the
  // budget feedback must generate ~9% fewer reference node-hours.
  auto cfg_fast = small_config(21);
  auto cfg_slow = small_config(21);
  FacilitySimulator fast(cat_, cfg_fast);
  OperatingPolicy slow_policy = OperatingPolicy::low_frequency_default();
  slow_policy.auto_revert_enabled = false;
  FacilitySimulator slow(cat_, cfg_slow);
  slow.set_policy(slow_policy);
  fast.run(start(), start() + Duration::days(14.0));
  slow.run(start(), start() + Duration::days(14.0));
  auto offered_nodeh = [](const FacilitySimulator& sim) {
    double nh = 0.0;
    for (const auto& r : sim.completed()) {
      nh += static_cast<double>(r.spec.nodes) * r.spec.ref_runtime.hrs();
    }
    return nh;
  };
  EXPECT_LT(offered_nodeh(slow), offered_nodeh(fast) * 0.97);
}


TEST_F(FacilitySimTest, MaintenanceWindowDrainsAndRecovers) {
  auto cfg = small_config(23);
  FacilitySimulator sim(cat_, cfg);
  const SimTime block = start() + Duration::days(10.0);
  const SimTime resume = block + Duration::hours(12.0);
  sim.schedule_maintenance(block, resume);
  sim.run(start(), start() + Duration::days(16.0));

  const double before =
      sim.mean_utilisation(start() + Duration::days(7.0), block);
  // Near the end of the block the drain has emptied most of the machine.
  const double drained = sim.mean_utilisation(
      resume - Duration::hours(2.0), resume);
  const double after = sim.mean_utilisation(
      resume + Duration::days(2.0), start() + Duration::days(16.0));
  EXPECT_GT(before, 0.75);
  EXPECT_LT(drained, before - 0.25);
  EXPECT_GT(after, 0.75);

  // No job may have started inside the blocked window.
  for (const auto& r : sim.completed()) {
    EXPECT_FALSE(r.start_time >= block && r.start_time < resume)
        << iso_date_time(r.start_time);
  }
}

TEST_F(FacilitySimTest, MaintenanceValidation) {
  FacilitySimulator sim(cat_, small_config());
  EXPECT_THROW(sim.schedule_maintenance(start(), start()), InvalidArgument);
  sim.run(start(), start() + Duration::days(1.0));
  EXPECT_THROW(sim.schedule_maintenance(start() + Duration::days(2.0),
                                        start() + Duration::days(3.0)),
               StateError);
}

TEST_F(FacilitySimTest, MaintenanceQueuedJobsReleaseExactlyOnce) {
  // Jobs queued during the block must start exactly once after the window
  // ends — no duplicated releases, no lost jobs.
  auto cfg = small_config(47);
  FacilitySimulator sim(cat_, cfg);
  const SimTime block = start() + Duration::days(7.0);
  const SimTime resume = block + Duration::hours(18.0);
  sim.schedule_maintenance(block, resume);
  sim.run(start(), start() + Duration::days(14.0));

  std::set<JobId> ids;
  for (const auto& r : sim.completed()) {
    EXPECT_TRUE(ids.insert(r.spec.id).second)
        << "job " << r.spec.id << " completed twice";
    EXPECT_FALSE(r.start_time >= block && r.start_time < resume);
  }
  // The backlog accumulated during the block drains after resume: some of
  // the completed jobs must have started in the first hours after it.
  std::size_t released_after = 0;
  for (const auto& r : sim.completed()) {
    if (r.start_time >= resume &&
        r.start_time < resume + Duration::hours(6.0)) {
      ++released_after;
    }
  }
  EXPECT_GT(released_after, 0u);
}

TEST_F(FacilitySimTest, DrainedMachineSitsExactlyOnTheIdleFloor) {
  // The busy-power accumulator is a compensated sum that resets to exactly
  // zero when the machine empties: with clean meters, a fully drained
  // sample must equal the idle floor to the last bit — no residue from the
  // hundreds of thousands of add/subtract pairs before the drain.
  auto cfg = small_config(49);
  cfg.metering_noise_sigma = 0.0;
  FacilitySimulator sim(cat_, cfg);
  const SimTime block = start() + Duration::days(7.0);
  const SimTime resume = block + Duration::days(3.0);  // outlasts any job
  sim.schedule_maintenance(block, resume);
  sim.run(start(), start() + Duration::days(12.0));

  const auto& util = sim.telemetry().channel(channels::kUtilisation);
  const auto& fleet = sim.telemetry().channel(channels::kNodeFleetKw);
  ASSERT_EQ(util.size(), fleet.size());
  const double idle_floor_kw =
      cfg.node_params.idle.w() *
      static_cast<double>(cfg.inventory.compute_nodes) / 1000.0;
  std::size_t drained_samples = 0;
  for (std::size_t i = 0; i < util.size(); ++i) {
    if (util[i].value == 0.0) {
      ++drained_samples;
      ASSERT_DOUBLE_EQ(fleet[i].value, idle_floor_kw)
          << "at " << iso_date_time(fleet[i].time);
    }
  }
  EXPECT_GT(drained_samples, 10u);
}


TEST_F(FacilitySimTest, TraceReplayRunsExactlyTheGivenJobs) {
  // Build a small explicit trace and replay it.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 20; ++i) {
    JobSpec j;
    j.id = static_cast<JobId>(i + 1);
    j.app = cat_.id((i % 2 == 0) ? "VASP (production)"
                                 : "GROMACS (production)");
    j.nodes = 8;
    j.ref_runtime = Duration::hours(2.0);
    j.requested_walltime = Duration::hours(4.0);
    j.submit_time = start() + Duration::minutes(10.0 * i);
    jobs.push_back(std::move(j));
  }
  FacilitySimulator sim(cat_, small_config(29));
  sim.run_trace(jobs, start(), start() + Duration::days(2.0));
  EXPECT_EQ(sim.completed().size(), 20u);
  for (const auto& r : sim.completed()) {
    EXPECT_EQ(r.spec.nodes, 8u);
    EXPECT_NEAR(r.runtime().hrs(), 2.0, 0.2);  // near reference conditions
  }
}

TEST_F(FacilitySimTest, TraceReplayRejectsDuplicateIdsBeforeRunning) {
  // Ids key the running set; a repeat would finish the wrong job.
  std::vector<JobSpec> jobs;
  for (const JobId id : {1u, 2u, 1u}) {
    JobSpec j;
    j.id = id;
    j.app = cat_.id("VASP (production)");
    j.nodes = 4;
    j.ref_runtime = Duration::hours(1.0);
    j.requested_walltime = Duration::hours(2.0);
    j.submit_time = start() + Duration::hours(1.0);
    jobs.push_back(std::move(j));
  }
  FacilitySimulator sim(cat_, small_config(59));
  try {
    sim.run_trace(jobs, start(), start() + Duration::days(1.0));
    FAIL() << "a repeated id must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "run_trace: duplicate job id in trace: 1");
  }
  EXPECT_TRUE(sim.completed().empty());
}

TEST_F(FacilitySimTest, TraceReplayRejectsUnknownApps) {
  std::vector<JobSpec> jobs(1);
  jobs[0].id = 1;
  // Names are resolved when a trace is read (jobs_from_csv); here the
  // first id past the catalogue must be rejected before anything runs.
  jobs[0].app = static_cast<AppId>(cat_.size());
  jobs[0].nodes = 1;
  jobs[0].submit_time = start() + Duration::hours(1.0);
  jobs[0].requested_walltime = Duration::hours(1.0);
  FacilitySimulator sim(cat_, small_config(31));
  EXPECT_THROW(sim.run_trace(jobs, start(), start() + Duration::days(1.0)),
               InvalidArgument);
  EXPECT_TRUE(sim.completed().empty());
}

TEST_F(FacilitySimTest, TraceReplayIgnoresOutOfWindowJobs) {
  std::vector<JobSpec> jobs(2);
  jobs[0].id = 1;
  jobs[0].app = cat_.id("VASP (production)");
  jobs[0].nodes = 4;
  jobs[0].ref_runtime = Duration::hours(1.0);
  jobs[0].requested_walltime = Duration::hours(2.0);
  jobs[0].submit_time = start() + Duration::hours(1.0);
  jobs[1] = jobs[0];
  jobs[1].id = 2;
  jobs[1].submit_time = start() + Duration::days(30.0);  // outside
  FacilitySimulator sim(cat_, small_config(33));
  sim.run_trace(jobs, start(), start() + Duration::days(2.0));
  EXPECT_EQ(sim.completed().size(), 1u);
  // The completed log is reserved for the in-window jobs only.
  EXPECT_EQ(sim.completed_reserved(), 1u);
}


TEST_F(FacilitySimTest, TraceWindowBoundariesAreHalfOpen) {
  // submit_time == start is inside the window; == end is outside.
  auto make_job = [&](JobId id, SimTime submit) {
    JobSpec j;
    j.id = id;
    j.app = cat_.id("VASP (production)");
    j.nodes = 4;
    j.ref_runtime = Duration::hours(1.0);
    j.requested_walltime = Duration::hours(2.0);
    j.submit_time = submit;
    return j;
  };
  const SimTime window_end = start() + Duration::days(2.0);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(1, start()));                        // included
  jobs.push_back(make_job(2, start() + Duration::hours(5.0))); // included
  jobs.push_back(make_job(3, window_end));                     // excluded
  FacilitySimulator sim(cat_, small_config(53));
  sim.run_trace(jobs, start(), window_end);
  ASSERT_EQ(sim.completed().size(), 2u);
  std::set<JobId> ids;
  for (const auto& r : sim.completed()) ids.insert(r.spec.id);
  EXPECT_TRUE(ids.count(1));
  EXPECT_TRUE(ids.count(2));
  EXPECT_FALSE(ids.count(3));
}

// Tier-1 counterpart of the benchmark's job-stream check: a micro run
// pins the completed-job count, the scheduler's pass count and a digest of
// every completed record.  The values were recorded when the scheduler
// still placed nodes itself and re-examined the whole backfill window on
// every pass; any change to a scheduling decision moves them.
TEST_F(FacilitySimTest, MicroRunPinsTheJobStreamAndSchedulerPasses) {
  FacilitySimulator sim(cat_, small_config(43));
  sim.run(start(), start() + Duration::days(3.0));
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  for (const JobRecord& r : sim.completed()) {
    mix(r.spec.id);
    mix(r.spec.nodes);
    mix(std::bit_cast<std::uint64_t>(r.start_time.sec()));
    mix(std::bit_cast<std::uint64_t>(r.end_time.sec()));
    mix(std::bit_cast<std::uint64_t>(r.node_energy.j()));
  }
  EXPECT_EQ(sim.completed().size(), 299u);
  EXPECT_EQ(sim.scheduler().started_total(), 344u);
  EXPECT_EQ(sim.scheduler().passes_total(), 644u);
  EXPECT_EQ(digest, 9843065373204172113ull);
}

TEST_F(FacilitySimTest, EnergyConservationAcrossAccountingViews) {
  // The cabinet-energy integral must equal the sum of job energies plus
  // idle-node, switch and cabinet-overhead energy over the same window —
  // two fully independent accounting paths through the simulator.
  auto cfg = small_config(37);
  cfg.metering_noise_sigma = 0.0;  // exact comparison needs clean meters
  FacilitySimulator sim(cat_, cfg);
  const SimTime t0 = start();
  const SimTime t1 = start() + Duration::days(14.0);
  sim.run(t0, t1);

  const Energy cabinet = sim.cabinet_energy();

  // Independent reconstruction from accounting records and channels.
  double job_kwh = 0.0;
  for (const auto& r : sim.completed()) {
    // Clip each job's energy to the run window.
    const double t_start = std::max(r.start_time.sec(), t0.sec());
    const double t_end = std::min(r.end_time.sec(), t1.sec());
    if (t_end <= t_start) continue;
    job_kwh += r.node_power_w.w() * static_cast<double>(r.spec.nodes) *
               (t_end - t_start) / 3600.0 / 1000.0;
  }
  // Jobs still running at t1 are not in completed(): reconstruct their
  // contribution from the node-fleet channel instead, which includes
  // idle draw too.  node_fleet integral = busy + idle node energy.
  const Energy node_fleet = Energy::kilojoules(
      sim.telemetry().channel(channels::kNodeFleetKw).integrate());

  // Fabric + cabinet overheads = cabinet - node fleet: bounded between
  // idle and loaded plant draw over the window.
  const double window_h = (t1 - t0).hrs();
  const double plant_kwh = cabinet.to_kwh() - node_fleet.to_kwh();
  const double plant_floor = (64.0 * 0.200 + 2.0 * 6.5) * window_h;
  const double plant_ceiling = (64.0 * 0.250 + 2.0 * 8.7) * window_h;
  EXPECT_GT(plant_kwh, plant_floor * 0.98);
  EXPECT_LT(plant_kwh, plant_ceiling * 1.02);

  // The node-fleet integral must be at least the completed jobs' energy
  // (it additionally contains idle nodes and still-running jobs) and
  // bounded above by jobs + all-idle energy + a still-running allowance.
  EXPECT_GT(node_fleet.to_kwh(), job_kwh * 0.95);
  const double idle_allowance = 512.0 * 0.230 * window_h;
  EXPECT_LT(node_fleet.to_kwh(), job_kwh + idle_allowance * 1.5);
}

// The completed log is reserved once from the generator's own rate
// formula; the estimate must cover every job the paper's campaigns
// complete, whatever the seed, or the log would double mid-run.
class ReservationEstimate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationEstimate, CoversTheFigureCampaigns) {
  for (const char* name : {"figure1", "figure2", "figure3"}) {
    ScenarioSpec spec = load_named_scenario(name);
    spec.seed = GetParam();
    const FacilityAssembly assembly(spec);
    const auto sim = assembly.run_simulator();
    EXPECT_GE(sim->completed_reserved(), sim->completed().size())
        << name << " seed " << GetParam();
    // An upper estimate, not a blanket: within a fifth of the count.
    EXPECT_LE(static_cast<double>(sim->completed_reserved()),
              1.2 * static_cast<double>(sim->completed().size()))
        << name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationEstimate,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace hpcem
