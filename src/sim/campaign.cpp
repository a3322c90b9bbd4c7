#include "sim/campaign.hpp"

#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hpcem {

namespace {

// Queue wait is a cross-thread interval (enqueue on the main thread, start
// on a worker), so it is only measured from the wall clock: under
// deterministic mode per-thread tick differences are meaningless and the
// recorded wait is 0 (the count still tallies tasks).
const obs::Histogram& queue_wait_hist() {
  static const obs::Histogram h("campaign.queue_wait_ns", "ns");
  return h;
}

const obs::Counter& tasks_counter() {
  static const obs::Counter c("campaign.tasks", "tasks");
  return c;
}

const obs::Gauge& workers_gauge() {
  static const obs::Gauge g("campaign.workers", "threads");
  return g;
}

/// One (scenario, seed) run reduced to a single-replicate outcome.
ScenarioOutcome run_one(const CampaignScenario& scenario,
                        std::uint64_t seed) {
  auto sim = scenario.build(seed);
  require(sim != nullptr, "CampaignRunner: scenario '", scenario.name,
          "' produced no simulator");
  sim->run(scenario.window_start - scenario.warmup, scenario.window_end);

  const SimTime a = scenario.window_start;
  const SimTime b = scenario.window_end;
  // Handle-based access: the simulator interned the cabinet channel at
  // composition time.
  const TimeSeries window =
      sim->telemetry().series(sim->cabinet_channel()).slice(a, b);
  require_state(!window.empty(), "CampaignRunner: scenario '", scenario.name,
                "' produced no window samples");

  ScenarioOutcome out;
  out.name = scenario.name;
  out.replicates = 1;
  out.mean_kw.add(window.mean());
  if (scenario.split_at) {
    out.mean_before_kw.add(window.mean_over(a, *scenario.split_at));
    out.mean_after_kw.add(window.mean_over(*scenario.split_at, b));
  } else {
    out.mean_before_kw.add(window.mean());
    out.mean_after_kw.add(window.mean());
  }
  out.mean_utilisation.add(sim->mean_utilisation(a, b));
  // integrate() returns kW-seconds over the sliced window.
  out.window_energy_kwh.add(window.integrate() / 3600.0);
  std::size_t in_window = 0;
  for (const auto& r : sim->completed()) {
    if (r.end_time >= a && r.end_time < b) ++in_window;
  }
  out.completed_jobs.add(static_cast<double>(in_window));
  return out;
}

}  // namespace

void ScenarioOutcome::merge(const ScenarioOutcome& other) {
  if (name.empty()) name = other.name;
  replicates += other.replicates;
  mean_kw.merge(other.mean_kw);
  mean_before_kw.merge(other.mean_before_kw);
  mean_after_kw.merge(other.mean_after_kw);
  mean_utilisation.merge(other.mean_utilisation);
  window_energy_kwh.merge(other.window_energy_kwh);
  completed_jobs.merge(other.completed_jobs);
}

CampaignRunner::CampaignRunner(CampaignConfig config) : config_(config) {
  require(config_.seeds_per_scenario >= 1,
          "CampaignRunner: need at least one seed per scenario");
}

std::uint64_t CampaignRunner::stream_seed(std::uint64_t campaign_seed,
                                          std::size_t scenario_index,
                                          std::size_t replicate_index) {
  // A short splitmix64 chain: decorrelate the campaign seed, then fold in
  // each coordinate through its own mixing step.  Depends only on the
  // coordinates, never on execution order.
  std::uint64_t state = campaign_seed;
  std::uint64_t h = splitmix64(state);
  state = h ^ (static_cast<std::uint64_t>(scenario_index) + 1);
  h = splitmix64(state);
  state = h ^ ((static_cast<std::uint64_t>(replicate_index) + 1) << 32);
  return splitmix64(state);
}

CampaignResult CampaignRunner::run(
    const std::vector<CampaignScenario>& scenarios) const {
  require(!scenarios.empty(), "CampaignRunner::run: no scenarios");
  for (const auto& s : scenarios) {
    require(s.window_end > s.window_start, "CampaignRunner::run: scenario '",
            s.name, "' window end must follow start");
    require(s.warmup.sec() >= 0.0, "CampaignRunner::run: scenario '", s.name,
            "' warmup must be non-negative");
    require(s.build != nullptr, "CampaignRunner::run: scenario '", s.name,
            "' has no simulator factory");
  }

  const std::size_t reps = config_.seeds_per_scenario;
  const std::size_t total = scenarios.size() * reps;
  const std::size_t workers =
      config_.workers == 0 ? ThreadPool::default_workers()
                           : config_.workers;

  // Intern the per-scenario span names up front on this thread: interning
  // takes the registry lock, and the worker hot path should not.
  std::vector<obs::NameId> task_names;
  if (obs::enabled()) {
    workers_gauge().set(workers);
    task_names.reserve(scenarios.size());
    for (const auto& s : scenarios) {
      task_names.push_back(obs::intern_name("campaign.task:" + s.name));
    }
  }

  // Every task writes only its own slot; the pool's wait_idle() is the
  // barrier that publishes the slots to the merging loop below.
  std::vector<ScenarioOutcome> partials(total);
  std::vector<std::exception_ptr> errors(total);
  {
    ThreadPool pool(workers);
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
      for (std::size_t ri = 0; ri < reps; ++ri) {
        const std::size_t idx = si * reps + ri;
        const std::uint64_t seed =
            stream_seed(config_.campaign_seed, si, ri);
        const CampaignScenario* scenario = &scenarios[si];
        const obs::NameId task_name =
            obs::enabled() ? task_names[si] : obs::NameId{};
        const std::uint64_t enqueued_ns =
            obs::enabled() && !obs::deterministic()
                ? obs::detail::wall_now_ns()
                : 0;
        pool.submit([scenario, seed, idx, task_name, enqueued_ns,
                     &partials, &errors] {
          if (obs::enabled()) {
            obs::set_thread_label("campaign-worker");
            tasks_counter().add();
            // enqueued_ns == 0 marks deterministic mode: the wait is a
            // cross-thread wall interval, so record 0 there (counts stay
            // stable, durations do not exist).
            queue_wait_hist().record(
                enqueued_ns == 0
                    ? 0
                    : obs::detail::wall_now_ns() - enqueued_ns);
          }
          const obs::ScopedSpan task_span(task_name);
          try {
            partials[idx] = run_one(*scenario, seed);
          } catch (...) {
            errors[idx] = std::current_exception();
          }
        });
      }
    }
    pool.wait_idle();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Deterministic reduction: replicates merge in index order, so the
  // merged moments are bit-identical for any worker count.
  HPCEM_OBS_SPAN("campaign.merge");
  CampaignResult result;
  result.workers_used = workers;
  result.total_runs = total;
  result.scenarios.resize(scenarios.size());
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    ScenarioOutcome& merged = result.scenarios[si];
    merged.name = scenarios[si].name;
    for (std::size_t ri = 0; ri < reps; ++ri) {
      merged.merge(partials[si * reps + ri]);
    }
  }
  return result;
}

}  // namespace hpcem
