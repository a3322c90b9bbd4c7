#include "core/campaign.hpp"

#include <exception>

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

/// One (spec, seed) run reduced to a single-replicate outcome.
ScenarioOutcome run_one(const FacilityAssembly& assembly,
                        std::uint64_t seed) {
  const ScenarioSpec& spec = assembly.spec();
  const auto sim = assembly.make_simulator(seed);
  sim->run(spec.window_start - spec.warmup, spec.window_end);

  // Handle-based access: the simulator interned the cabinet channel at
  // composition time.
  const TimeSeries window = sim->telemetry()
                                .series(sim->cabinet_channel())
                                .slice(spec.window_start, spec.window_end);
  require_state(!window.empty(), "run_campaign: scenario '", spec.name,
                "' produced no window samples");
  const RunHeadline h = window_headline(*sim, spec, window);

  ScenarioOutcome out;
  out.name = spec.name;
  out.replicates = 1;
  out.mean_kw.add(h.mean_kw.kw());
  out.mean_before_kw.add(h.mean_before_kw.kw());
  out.mean_after_kw.add(h.mean_after_kw.kw());
  out.mean_utilisation.add(h.mean_utilisation);
  out.window_energy_kwh.add(h.window_energy_kwh.kwh());
  out.completed_jobs.add(h.completed_jobs);
  return out;
}

}  // namespace

std::uint64_t replicate_seed(std::uint64_t seed, std::size_t replicate) {
  if (replicate == 0) return seed;
  // Decorrelate the seed, then fold in the replicate through its own
  // mixing step.  Depends only on (seed, replicate).
  std::uint64_t state = seed;
  state = splitmix64(state) ^ static_cast<std::uint64_t>(replicate);
  return splitmix64(state);
}

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

CampaignResult run_campaign(const std::vector<ScenarioSpec>& specs,
                            const CampaignConfig& config) {
  require(config.seeds_per_scenario >= 1,
          "run_campaign: need at least one seed per scenario");
  require(!specs.empty(), "run_campaign: no scenarios");

  // Assembling validates each spec (window, warm-up, overrides) before any
  // task starts; workers share the assemblies immutably.
  std::vector<FacilityAssembly> assemblies;
  assemblies.reserve(specs.size());
  for (const auto& spec : specs) assemblies.emplace_back(spec);

  const std::size_t reps = config.seeds_per_scenario;
  const std::size_t total = specs.size() * reps;
  const std::size_t workers =
      config.workers == 0 ? ThreadPool::default_workers() : config.workers;

  // Intern the per-scenario span names up front on this thread: interning
  // takes the registry lock, and the worker hot path should not.
  std::vector<obs::NameId> task_names;
  if (obs::enabled()) {
    workers_gauge().set(workers);
    task_names.reserve(specs.size());
    for (const auto& s : specs) {
      task_names.push_back(obs::intern_name("campaign.task:" + s.name));
    }
  }

  // Every task writes only its own slot; the pool's wait_idle() is the
  // barrier that publishes the slots to the merging loop below.
  std::vector<ScenarioOutcome> partials(total);
  std::vector<std::exception_ptr> errors(total);
  {
    ThreadPool pool(workers);
    for (std::size_t si = 0; si < specs.size(); ++si) {
      for (std::size_t ri = 0; ri < reps; ++ri) {
        const std::size_t idx = si * reps + ri;
        const std::uint64_t seed = replicate_seed(specs[si].seed, ri);
        const FacilityAssembly* assembly = &assemblies[si];
        const obs::NameId task_name =
            obs::enabled() ? task_names[si] : obs::NameId{};
        const std::uint64_t enqueued_ns =
            obs::enabled() && !obs::deterministic()
                ? obs::detail::wall_now_ns()
                : 0;
        pool.submit([assembly, seed, idx, task_name, enqueued_ns,
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
            partials[idx] = run_one(*assembly, seed);
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
  result.scenarios.resize(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si) {
    ScenarioOutcome& merged = result.scenarios[si];
    merged.name = specs[si].name;
    for (std::size_t ri = 0; ri < reps; ++ri) {
      merged.merge(partials[si * reps + ri]);
    }
  }
  return result;
}

}  // namespace hpcem
