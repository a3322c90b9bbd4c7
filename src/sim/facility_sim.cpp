#include "sim/facility_sim.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace hpcem {

namespace {

// Step-loop phase metrics (see DESIGN.md "Observability layer" for the
// span taxonomy).  The scheduler pass runs on every submit/finish — far
// too often for one span each — so it is a duration histogram instead.
const obs::Histogram& sched_pass_hist() {
  static const obs::Histogram h("sim.sched.pass_ns", "ns");
  return h;
}

const obs::Counter& jobs_started_counter() {
  static const obs::Counter c("sim.jobs.started", "jobs");
  return c;
}

const obs::Counter& samples_counter() {
  static const obs::Counter c("sim.samples", "samples");
  return c;
}

}  // namespace

SimComposition FacilitySimulator::standard_composition(
    const FacilitySimConfig& config) {
  SimComposition c;
  c.sources.push_back(
      std::make_unique<NodeFleetSource>(config.node_params));
  c.sources.push_back(std::make_unique<SwitchFabricSource>(
      config.switch_model, config.inventory.switches));
  c.sources.push_back(std::make_unique<CabinetOverheadSource>(
      config.cabinet_model, config.inventory.cabinets));
  c.probes.push_back(std::make_unique<UtilisationProbe>());
  c.probes.push_back(std::make_unique<QueueStateProbe>());
  return c;
}

FacilitySimulator::FacilitySimulator(const AppCatalog& catalog,
                                     FacilitySimConfig config)
    : FacilitySimulator(catalog, config, standard_composition(config)) {}

FacilitySimulator::FacilitySimulator(const AppCatalog& catalog,
                                     FacilitySimConfig config,
                                     SimComposition composition)
    : catalog_(&catalog),
      config_(config),
      composition_(std::move(composition)),
      rng_(config.seed),
      policy_cache_(catalog) {
  require(config_.sample_interval.sec() > 0.0,
          "FacilitySimulator: sample interval must be positive");
  require(config_.metering_noise_sigma >= 0.0,
          "FacilitySimulator: noise sigma must be non-negative");
  require(!composition_.sources.empty(),
          "FacilitySimulator: composition needs at least one power source");
  SchedulerConfig sched_cfg;
  sched_cfg.nodes = config_.inventory.compute_nodes;
  sched_cfg.discipline = config_.sched_discipline;
  sched_cfg.weights = config_.sched_weights;
  scheduler_ = std::make_unique<Scheduler>(sched_cfg);

  if (config_.telemetry_max_raw_samples != 0) {
    recorder_.set_max_raw_samples(config_.telemetry_max_raw_samples);
  }
  cabinet_channel_ = recorder_.declare(channels::kCabinetKw, "kW");
  source_channels_.reserve(composition_.sources.size());
  for (const auto& source : composition_.sources) {
    source_channels_.push_back(recorder_.declare(source->channel(), "kW"));
  }
  for (const auto& probe : composition_.probes) {
    probe->declare_channels(recorder_);
  }
  sources_time_invariant_ =
      std::all_of(composition_.sources.begin(), composition_.sources.end(),
                  [](const auto& s) { return s->time_invariant(); });
}

void FacilitySimulator::schedule_policy_change(SimTime when,
                                               OperatingPolicy policy) {
  require_state(!ran_,
                "schedule_policy_change: must be called before run()");
  pending_changes_.emplace_back(when, policy);
}

void FacilitySimulator::run(SimTime start, SimTime end) {
  run_impl({}, /*use_trace=*/false, start, end);
}

void FacilitySimulator::run_trace(std::vector<JobSpec> jobs, SimTime start,
                                  SimTime end) {
  run_impl(std::move(jobs), /*use_trace=*/true, start, end);
}

void FacilitySimulator::run_impl(std::vector<JobSpec> trace, bool use_trace,
                                 SimTime start, SimTime end) {
  require_state(!ran_, "FacilitySimulator::run: may only run once");
  require(end > start, "FacilitySimulator::run: end must follow start");
  ran_ = true;
  HPCEM_OBS_SPAN("sim.run");

  engine_ = SimEngine(start);
  run_end_ = end;

  // Arm the recorded policy changes.  A change scheduled before the window
  // must not be dropped silently: the service is already running the armed
  // policy when the window opens, so the latest pre-window change applies
  // from `start`.
  const std::pair<SimTime, OperatingPolicy>* latest_pre_window = nullptr;
  for (const auto& change : pending_changes_) {
    const SimTime when = change.first;
    if (when < start) {
      // >= keeps the later-recorded change on ties, matching the "last
      // schedule wins" semantics of sequential in-window changes.
      if (latest_pre_window == nullptr ||
          when >= latest_pre_window->first) {
        latest_pre_window = &change;
      }
    } else if (when < end) {
      armed_policies_.push_back(change.second);
      engine_.schedule_static(when, SimEventKind::kPolicyChange,
                              armed_policies_.size() - 1);
    }
  }
  if (latest_pre_window != nullptr) policy_ = latest_pre_window->second;
  policy_cache_.set_policy(policy_);

  // Arm maintenance reservations.
  for (const auto& [from, until] : maintenance_) {
    if (from >= start && from < end) {
      engine_.schedule_static(from, SimEventKind::kMaintenanceBegin);
    }
    if (until >= start && until < end) {
      engine_.schedule_static(until, SimEventKind::kMaintenanceEnd);
    }
  }

  if (use_trace) {
    // Replay an explicit trace: one submit event per in-window job.
    for (auto& job : trace) {
      require(catalog_->contains(job.app),
              "run_trace: unknown application in trace: ", job.app);
      if (job.submit_time < start || job.submit_time >= end) continue;
      const SimTime at = job.submit_time;
      engine_.schedule_static(at, SimEventKind::kSubmit,
                              park_job(std::move(job)));
    }
  } else {
    // Hourly on-the-fly workload generation, as a lazy tick train.  The
    // arrival rate is divided by the mix-average slowdown of the *current*
    // policy: allocations are charged in node-hours, so budget-capped
    // users offer a constant node-hour stream no matter how fast
    // individual jobs run.
    generator_ = std::make_unique<WorkloadGenerator>(
        *catalog_, config_.inventory.compute_nodes, config_.gen,
        rng_.split());
    engine_.set_workload_stream(start, Duration::hours(1.0), end);
  }

  // Telemetry sampling on a fixed cadence, as a lazy tick train.
  engine_.set_sample_stream(start, config_.sample_interval, end);

  {
    HPCEM_OBS_SPAN("sim.step");
    SimEvent ev;
    while (engine_.next(end, ev)) dispatch(ev);
  }
  engine_.advance_to(end);

  // Ingest is counted in bulk here, a quiescent point that precedes every
  // export — the per-sample guard a push counter would need measurably
  // slows Recorder::record even when collection is off.
  if (obs::enabled()) detail::note_recorder_ingest(recorder_.total_appended());
}

void FacilitySimulator::dispatch(const SimEvent& ev) {
  switch (ev.kind) {
    case SimEventKind::kPolicyChange:
      policy_ = armed_policies_[ev.payload];
      policy_cache_.set_policy(policy_);
      power_dirty_ = true;
      break;
    case SimEventKind::kMaintenanceBegin:
      starts_blocked_ = true;
      break;
    case SimEventKind::kMaintenanceEnd:
      starts_blocked_ = false;
      start_ready_jobs();  // release the accumulated queue
      break;
    case SimEventKind::kSubmit:
      on_submit(take_job(ev.payload));
      break;
    case SimEventKind::kWorkloadHour:
      generate_hour(ev.time);
      break;
    case SimEventKind::kSample:
      sample();
      break;
    case SimEventKind::kFinish:
      on_finish(ev.payload);
      break;
  }
}

void FacilitySimulator::generate_hour(SimTime t) {
  HPCEM_OBS_SPAN("sim.workload.generate");
  for (auto& job : generator_->generate_hour(t, demand_scale())) {
    if (job.submit_time >= run_end_) continue;
    const SimTime at = job.submit_time;
    engine_.schedule(at, SimEventKind::kSubmit, park_job(std::move(job)));
  }
}

std::uint64_t FacilitySimulator::park_job(JobSpec job) {
  if (free_job_slots_.empty()) {
    job_slots_.push_back(std::move(job));
    return job_slots_.size() - 1;
  }
  const std::uint64_t slot = free_job_slots_.back();
  free_job_slots_.pop_back();
  job_slots_[slot] = std::move(job);
  return slot;
}

JobSpec FacilitySimulator::take_job(std::uint64_t slot) {
  JobSpec job = std::move(job_slots_[slot]);
  free_job_slots_.push_back(slot);
  return job;
}

void FacilitySimulator::schedule_maintenance(SimTime block_from,
                                             SimTime end) {
  require_state(!ran_, "schedule_maintenance: must be called before run()");
  require(end > block_from,
          "schedule_maintenance: end must follow block_from");
  maintenance_.emplace_back(block_from, end);
}

double FacilitySimulator::demand_scale() const {
  // Mix-average runtime stretch under the active policy, relative to the
  // reference conditions the generator's runtimes are expressed in —
  // served from the policy-epoch cache (same accumulation bit-for-bit).
  return policy_cache_.demand_scale();
}

void FacilitySimulator::on_submit(JobSpec job) {
  power_dirty_ = true;  // queue length is part of the sampled state
  scheduler_->submit(std::move(job));
  start_ready_jobs();
}

void FacilitySimulator::start_ready_jobs() {
  if (starts_blocked_) return;
  const obs::ScopedTimer pass_timer(sched_pass_hist());
  const SimTime now = engine_.now();
  for (auto& start : scheduler_->schedule_pass(now)) {
    jobs_started_counter().add();
    power_dirty_ = true;
    // Per-start policy math comes from the policy-epoch cache: the same
    // guards and the same floating-point expressions as the uncached
    // ApplicationModel calls, evaluated once per policy change.
    const std::size_t app_index = catalog_->index(start.job.app);
    require(start.job.ref_runtime.sec() > 0.0,
            "ApplicationModel::runtime: reference runtime must be positive");
    const PolicyFactorCache::JobFactors& f =
        policy_cache_.factors(app_index, start.job);
    const Duration runtime = start.job.ref_runtime * f.time_factor;
    require(start.job.silicon_factor >= 0.0,
            "node_power: silicon_factor must be non-negative");
    const double per_node_w = f.draw.watts(start.job.silicon_factor);
    const double fleet_w =
        per_node_w * static_cast<double>(start.job.nodes);

    const JobId id = start.job.id;
    RunningJob rj;
    rj.record.spec = std::move(start.job);
    rj.record.start_time = now;
    rj.record.end_time = now + runtime;
    rj.record.pstate = f.pstate;
    rj.record.mode = policy_.bios_mode;
    rj.record.node_power_w = per_node_w;
    rj.record.node_energy =
        Power::watts(fleet_w) * runtime;
    rj.fleet_power_w = fleet_w;

    busy_node_power_w_.add(fleet_w);
    scheduler_->set_expected_end(id, rj.record.end_time);
    engine_.schedule(rj.record.end_time, SimEventKind::kFinish, id);
    running_.emplace(id, std::move(rj));
  }
}

void FacilitySimulator::on_finish(JobId id) {
  auto it = running_.find(id);
  HPCEM_ASSERT(it != running_.end(), "finish event for unknown job");
  power_dirty_ = true;
  busy_node_power_w_.subtract(it->second.fleet_power_w);
  // Compensated summation keeps the residual at a rounding of the peak
  // magnitude, so anything visibly negative is an accounting bug.
  HPCEM_ASSERT(busy_node_power_w_.value() > -1e-3,
               "busy power went negative");
  if (running_.size() == 1) busy_node_power_w_.reset();  // exact empty
  scheduler_->finish(id, engine_.now());
  completed_.push_back(std::move(it->second.record));
  running_.erase(it);
  start_ready_jobs();
}

SimSnapshot FacilitySimulator::snapshot() const {
  SimSnapshot s;
  s.now = engine_.now();
  s.total_nodes = config_.inventory.compute_nodes;
  s.busy_nodes = scheduler_->busy_nodes();
  s.utilisation = scheduler_->utilisation();
  s.queue_length = scheduler_->queue_length();
  s.running_jobs = scheduler_->running_count();
  s.busy_node_power_w = std::max(0.0, busy_node_power_w_.value());
  return s;
}

void FacilitySimulator::sample() {
  samples_counter().add();
  SimSnapshot s = snapshot();
  // With no metering noise configured the draw is skipped entirely (the
  // factor is exactly 1.0 either way, and sample() is the only rng_
  // consumer during the run, so the stream is unperturbed).
  const double sigma = config_.metering_noise_sigma;
  const double noise = sigma == 0.0 ? 1.0 : 1.0 + rng_.normal(0.0, sigma);

  // Evaluate the sources in order, accumulating the boundary totals the
  // later sources (and the cabinet meter) see.  Quiescent skip: if no
  // submit/start/finish/policy change happened since the previous sample
  // and every source is time-invariant, the snapshot the sources consume
  // is unchanged, so the previous evaluation is reused verbatim.
  if (power_dirty_ || !sources_time_invariant_) {
    HPCEM_OBS_SPAN("sim.sample.power");
    double metered_w = 0.0;
    double total_w = 0.0;
    source_power_kw_.resize(composition_.sources.size());
    for (std::size_t i = 0; i < composition_.sources.size(); ++i) {
      const auto& source = composition_.sources[i];
      s.metered_power_so_far_w = metered_w;
      s.total_power_so_far_w = total_w;
      const Power p = source->power(s);
      if (source->metered()) metered_w += p.w();
      total_w += p.w();
      source_power_kw_[i] = p.kw();
    }
    cached_metered_w_ = metered_w;
    cached_total_w_ = total_w;
    power_dirty_ = false;
  }
  for (std::size_t i = 0; i < composition_.sources.size(); ++i) {
    recorder_.record(
        source_channels_[i], s.now,
        source_power_kw_[i] *
            (composition_.sources[i]->noisy() ? noise : 1.0));
  }

  HPCEM_OBS_SPAN("sim.sample.telemetry");
  recorder_.record(cabinet_channel_, s.now,
                   cached_metered_w_ / 1000.0 * noise);

  s.metered_power_so_far_w = cached_metered_w_;
  s.total_power_so_far_w = cached_total_w_;
  for (const auto& probe : composition_.probes) {
    probe->on_sample(s, recorder_);
  }
}

double FacilitySimulator::mean_cabinet_kw(SimTime a, SimTime b) const {
  return recorder_.series(cabinet_channel_).mean_over(a, b);
}

double FacilitySimulator::mean_utilisation(SimTime a, SimTime b) const {
  return recorder_.channel(channels::kUtilisation).mean_over(a, b);
}

Energy FacilitySimulator::cabinet_energy() const {
  // The channel is in kW; integrate() returns kW-seconds.
  const double kws = recorder_.series(cabinet_channel_).integrate();
  return Energy::kilojoules(kws);
}

}  // namespace hpcem
