// Microbenchmarks (google-benchmark): throughput of the hot paths that the
// facility-scale reproductions depend on — power-model evaluation, the
// event engine, scheduler passes, changepoint detection and the end-to-end
// facility simulation at the paper's 5,860-node scale.
#include <benchmark/benchmark.h>

#include <cmath>
#include <deque>

#include "core/assembly.hpp"
#include "core/facility.hpp"
#include "sched/allocator.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "telemetry/changepoint.hpp"
#include "telemetry/recorder.hpp"
#include "util/rng.hpp"
#include "workload/policy.hpp"

namespace {

using namespace hpcem;

void BM_NodePowerEval(benchmark::State& state) {
  const Facility facility = Facility::archer2();
  const ApplicationModel& app = facility.catalog().at("VASP (production)");
  NodeActivity act;
  act.mode = DeterminismMode::kPowerDeterminism;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        node_power(facility.node_params(), app.profile(), act));
  }
}
BENCHMARK(BM_NodePowerEval);

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    SimEngine engine;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule(SimTime(static_cast<double>(i)),
                      SimEventKind::kFinish, i);
    }
    SimEvent ev;
    while (engine.next(SimTime(static_cast<double>(n)), ev)) {
      sum += ev.payload;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    SchedulerConfig cfg;
    cfg.nodes = 1024;
    Scheduler sched(cfg);
    Rng rng(7);
    SimTime now(0.0);
    JobId id = 1;
    std::vector<JobId> running;
    for (int step = 0; step < 200; ++step) {
      JobSpec j;
      j.id = id++;
      j.app = "x";
      j.nodes = static_cast<std::size_t>(rng.uniform_int(1, 64));
      j.requested_walltime = Duration::hours(1.0);
      j.submit_time = now;
      sched.submit(std::move(j));
      for (auto& s : sched.schedule_pass(now)) running.push_back(s.job.id);
      if (running.size() > 16) {
        sched.finish(running.front(), now);
        running.erase(running.begin());
      }
      now += Duration::minutes(1.0);
    }
    benchmark::DoNotOptimize(sched.finished_total());
  }
}
BENCHMARK(BM_SchedulerChurn);

// Full-scale scheduler churn: the paper's 5,860-node machine with several
// hundred running jobs and a standing queue, so every submit/finish pass
// exercises the EASY backfill shadow over the whole running set.
void BM_SchedulerShadowChurn(benchmark::State& state) {
  std::uint64_t passes = 0;
  for (auto _ : state) {
    SchedulerConfig cfg;
    cfg.nodes = 5860;
    Scheduler sched(cfg);
    Rng rng(7);
    SimTime now(0.0);
    JobId id = 1;
    std::deque<JobId> running;
    for (int step = 0; step < 2000; ++step) {
      JobSpec j;
      j.id = id++;
      j.app = "x";
      j.nodes = static_cast<std::size_t>(rng.uniform_int(1, 64));
      j.requested_walltime = Duration::hours(1.0 + 23.0 * rng.uniform());
      j.submit_time = now;
      sched.submit(std::move(j));
      for (auto& s : sched.schedule_pass(now)) {
        // Realised runtimes are shorter than the walltime estimate, which
        // is what creates the backfill opportunities.
        sched.set_expected_end(
            s.job.id, now + s.job.requested_walltime * (0.4 + 0.5 * rng.uniform()));
        running.push_back(s.job.id);
      }
      ++passes;
      while (running.size() > 400) {
        sched.finish(running.front(), now);
        running.pop_front();
        for (auto& s : sched.schedule_pass(now)) running.push_back(s.job.id);
        ++passes;
      }
      now += Duration::minutes(1.0);
    }
    benchmark::DoNotOptimize(sched.finished_total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(passes));
  state.counters["sched_passes_per_sec"] = benchmark::Counter(
      static_cast<double>(passes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedulerShadowChurn)->Unit(benchmark::kMillisecond);

// Node allocator under fragmented churn: the 5,860-node pool held near
// 92 % busy by log-uniform widths 1-1,024, releasing a random live
// allocation, so first-fit scans a free list of dozens of fragments and
// a share of the requests scatter across several of them.
void BM_NodeAllocatorChurn(benchmark::State& state) {
  constexpr std::size_t kNodes = 5860;
  constexpr std::size_t kTargetBusy = kNodes * 92 / 100;
  constexpr int kSteps = 10000;
  for (auto _ : state) {
    NodeAllocator allocator(kNodes);
    Rng rng(2023);
    std::vector<std::vector<NodeRun>> live;
    for (int step = 0; step < kSteps; ++step) {
      if (!live.empty() && (allocator.busy_count() >= kTargetBusy ||
                            rng.bernoulli(0.3))) {
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        allocator.release(live[idx]);
        live[idx] = std::move(live.back());
        live.pop_back();
      } else if (auto runs = allocator.allocate(static_cast<std::size_t>(
                     std::floor(std::exp2(10.0 * rng.uniform()))))) {
        live.push_back(std::move(*runs));
      }
    }
    benchmark::DoNotOptimize(allocator.fragment_count());
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_NodeAllocatorChurn)->Unit(benchmark::kMillisecond);

// End-to-end facility simulation at full ARCHER2 scale (5,860 nodes, the
// production job mix, 30-minute cabinet metering, a BIOS policy change
// mid-window): the hot loop behind figures 1-3 and every campaign.  The
// counters make the JSON output machine-comparable across commits
// (ISSUE 7 acceptance: >=3x end-to-end on this configuration).
void BM_FacilitySimFullScale(benchmark::State& state) {
  const auto days = static_cast<double>(state.range(0));
  static const Facility facility = Facility::archer2();
  const SimTime start = sim_time_from_date({2022, 4, 1});
  const SimTime end = start + Duration::days(days);
  std::int64_t samples = 0;
  std::int64_t jobs = 0;
  std::int64_t passes = 0;
  for (auto _ : state) {
    auto sim = facility.make_simulator(42);
    sim->schedule_policy_change(start + Duration::days(days / 2.0),
                                OperatingPolicy::performance_determinism());
    sim->run(start, end);
    samples += static_cast<std::int64_t>(
        sim->telemetry().series(sim->cabinet_channel()).total_appended());
    jobs += static_cast<std::int64_t>(sim->completed().size());
    passes += static_cast<std::int64_t>(sim->scheduler().passes_total());
  }
  state.SetItemsProcessed(samples);
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate);
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["sched_passes_per_sec"] = benchmark::Counter(
      static_cast<double>(passes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FacilitySimFullScale)
    ->Arg(7)
    ->Unit(benchmark::kMillisecond);

void BM_ChangepointDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = (i < n / 2 ? 3220.0 : 3010.0) + rng.normal(0.0, 25.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_single_step(xs, 8));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangepointDetect)->Arg(4096);

void BM_DragonflyMeanHops(benchmark::State& state) {
  const Facility facility = Facility::archer2();
  Rng rng(13);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.uniform_int(0, 5859)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(facility.fabric().mean_pairwise_hops(nodes));
  }
}
BENCHMARK(BM_DragonflyMeanHops);

// Telemetry ingest: the per-sample record path over the simulator's real
// channel set, round-robin.  String-keyed record() resolves the name per
// sample; the interned ChannelId path resolves once at composition time
// and records through a dense index (ISSUE acceptance: >=3x throughput on
// a 10-channel / 1M-sample workload).  Timestamps and values are
// precomputed so the timed loop measures record(), not index arithmetic.
const std::vector<std::string>& ingest_channel_names() {
  static const std::vector<std::string> names = {
      "cabinet_kw",   "node_fleet_kw", "switch_kw",    "overhead_kw",
      "cdu_kw",       "filesystem_kw", "cooling_kw",   "utilisation",
      "queue_length", "running_jobs"};
  return names;
}

struct IngestWorkload {
  std::vector<SimTime> times;
  std::vector<double> values;
};

const IngestWorkload& ingest_workload(std::size_t samples) {
  static const IngestWorkload w = [samples] {
    IngestWorkload out;
    out.times.reserve(samples);
    out.values.reserve(samples);
    Rng rng(17);
    for (std::size_t i = 0; i < samples; ++i) {
      out.times.push_back(SimTime(static_cast<double>(i)));
      out.values.push_back(3000.0 + rng.normal(0.0, 50.0));
    }
    return out;
  }();
  return w;
}

void BM_RecorderIngestString(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto& names = ingest_channel_names();
  const auto& w = ingest_workload(samples);
  for (auto _ : state) {
    Recorder recorder;
    for (const auto& name : names) recorder.declare(name, "kW");
    std::size_t c = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      recorder.record(names[c], w.times[i], w.values[i]);
      if (++c == names.size()) c = 0;
    }
    benchmark::DoNotOptimize(
        recorder.channel(names.front()).total_appended());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples));
}
BENCHMARK(BM_RecorderIngestString)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_RecorderIngestHandle(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto& names = ingest_channel_names();
  const auto& w = ingest_workload(samples);
  for (auto _ : state) {
    Recorder recorder;
    std::vector<ChannelId> ids;
    for (const auto& name : names) ids.push_back(recorder.declare(name, "kW"));
    std::size_t c = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      recorder.record(ids[c], w.times[i], w.values[i]);
      if (++c == ids.size()) c = 0;
    }
    benchmark::DoNotOptimize(
        recorder.series(ids.front()).total_appended());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples));
}
BENCHMARK(BM_RecorderIngestHandle)->Arg(1000000)->Unit(benchmark::kMillisecond);

// Same ingest with a bounded raw-sample budget: aggregates stay exact while
// retention decimates the stored stream.
void BM_RecorderIngestHandleBounded(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto& names = ingest_channel_names();
  const auto& w = ingest_workload(samples);
  for (auto _ : state) {
    Recorder recorder;
    recorder.set_max_raw_samples(4096);
    std::vector<ChannelId> ids;
    for (const auto& name : names) ids.push_back(recorder.declare(name, "kW"));
    std::size_t c = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      recorder.record(ids[c], w.times[i], w.values[i]);
      if (++c == ids.size()) c = 0;
    }
    benchmark::DoNotOptimize(
        recorder.series(ids.front()).total_appended());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples));
}
BENCHMARK(BM_RecorderIngestHandleBounded)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Campaign fan-out: eight two-week micro-machine scenarios on a worker
// pool.  The merged result is bit-identical for every worker count; what
// scales is the wall clock (ISSUE acceptance: >=3x at 8 workers vs 1 on an
// 8-way host).
void BM_CampaignScaling(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 8; ++i) {
    ScenarioSpec spec;
    spec.name = "micro-" + std::to_string(i);
    spec.machine = MachineModel::kMicro;
    spec.window_start =
        sim_time_from_date({2022, 2, 1}) + Duration::days(i);
    spec.window_end = spec.window_start + Duration::days(14.0);
    spec.warmup = Duration::days(2.0);
    specs.push_back(std::move(spec));
  }
  CampaignConfig cfg;
  cfg.workers = workers;
  for (auto _ : state) {
    const CampaignResult result = run_campaign(specs, cfg);
    benchmark::DoNotOptimize(result.scenarios.front().mean_kw.mean());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_CampaignScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
