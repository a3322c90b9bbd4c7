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

SchedulerConfig scheduler_config(const FacilitySimConfig& config) {
  SchedulerConfig sched_cfg;
  sched_cfg.nodes = config.inventory.compute_nodes;
  sched_cfg.discipline = config.sched_discipline;
  sched_cfg.weights = config.sched_weights;
  return sched_cfg;
}

}  // namespace

SimComposition FacilitySimulator::standard_composition(
    const FacilitySimConfig& config, IdlePowerPolicy idle) {
  SimComposition c;
  c.push_back(std::make_unique<NodeFleetSource>(config.node_params, idle));
  c.push_back(std::make_unique<SwitchFabricSource>(
      config.switch_model, config.inventory.switches));
  c.push_back(std::make_unique<CabinetOverheadSource>(
      config.cabinet_model, config.inventory.cabinets));
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
      scheduler_(scheduler_config(config)),
      policy_cache_(catalog) {
  require(config_.sample_interval.sec() > 0.0,
          "FacilitySimulator: sample interval must be positive");
  require(config_.metering_noise_sigma >= 0.0,
          "FacilitySimulator: noise sigma must be non-negative");
  require(!composition_.empty(),
          "FacilitySimulator: composition needs at least one power source");

  cabinet_channel_ = recorder_.declare(channels::kCabinetKw, "kW");
  source_channels_.reserve(composition_.size());
  for (const auto& source : composition_) {
    source_channels_.push_back(recorder_.declare(source->channel(), "kW"));
  }
  utilisation_channel_ = recorder_.declare(channels::kUtilisation, "fraction");
  queue_length_channel_ = recorder_.declare(channels::kQueueLength, "jobs");
  running_jobs_channel_ = recorder_.declare(channels::kRunningJobs, "jobs");
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

void FacilitySimulator::run_trace(const std::vector<JobSpec>& jobs,
                                  SimTime start, SimTime end) {
  // Job ids key the running set: a repeated id would finish the wrong job.
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (const JobSpec& job : jobs) ids.push_back(job.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 1; i < ids.size(); ++i) {
    require(ids[i] != ids[i - 1], "run_trace: duplicate job id in trace: ",
            ids[i]);
  }
  run_impl(jobs, /*use_trace=*/true, start, end);
}

void FacilitySimulator::run_impl(const std::vector<JobSpec>& trace,
                                 bool use_trace, SimTime start, SimTime end) {
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

  // The completed log is reserved once, from the job source, rather than
  // grown by doubling (a doubling holds the old and new buffers at once).
  if (use_trace) {
    // Replay an explicit trace: one submit event per in-window job.
    for (const JobSpec& job : trace) {
      require(catalog_->contains(job.app),
              "run_trace: unknown application id in trace: ",
              static_cast<std::uint32_t>(job.app), " (catalogue holds ",
              catalog_->size(), ")");
      if (job.submit_time < start || job.submit_time >= end) continue;
      engine_.schedule_static(job.submit_time, SimEventKind::kSubmit,
                              job_slots_.put(job));
      ++completed_reserved_;
    }
  } else {
    // Hourly on-the-fly workload generation, as a lazy tick train.  The
    // arrival rate is divided by the mix-average slowdown of the *current*
    // policy: allocations are charged in node-hours, so budget-capped
    // users offer a constant node-hour stream no matter how fast
    // individual jobs run.
    generator_.emplace(*catalog_, config_.inventory.compute_nodes,
                       config_.gen, rng_.split());
    engine_.set_workload_stream(start, Duration::hours(1.0), end);
    // Every hour is drawn at the demand scale of one of the policies this
    // run arms, so the largest of those scales bounds the arrival rate.
    double max_scale = policy_cache_.demand_scale();
    for (const OperatingPolicy& policy : armed_policies_) {
      PolicyFactorCache cache(*catalog_);
      cache.set_policy(policy);
      max_scale = std::max(max_scale, cache.demand_scale());
    }
    completed_reserved_ =
        generator_->jobs_upper_estimate((end - start).hrs(), max_scale);
  }
  completed_.reserve(completed_reserved_);

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
      break;
    case SimEventKind::kMaintenanceBegin:
      starts_blocked_ = true;
      break;
    case SimEventKind::kMaintenanceEnd:
      starts_blocked_ = false;
      start_ready_jobs();  // release the accumulated queue
      break;
    case SimEventKind::kSubmit:
      on_submit(job_slots_.take(ev.payload));
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
  // The arrival rate follows the active policy's demand scale (see
  // run_impl).  The hour comes sorted by submit time, so it reaches the
  // engine as one run, off the event heap.
  submit_run_.clear();
  for (const JobSpec& job :
       generator_->generate_hour(t, policy_cache_.demand_scale())) {
    if (job.submit_time >= run_end_) continue;
    submit_run_.push_back({job.submit_time, job_slots_.put(job)});
  }
  engine_.schedule_run(SimEventKind::kSubmit, submit_run_);
}

void FacilitySimulator::schedule_maintenance(SimTime block_from,
                                             SimTime end) {
  require_state(!ran_, "schedule_maintenance: must be called before run()");
  require(end > block_from,
          "schedule_maintenance: end must follow block_from");
  maintenance_.emplace_back(block_from, end);
}

void FacilitySimulator::on_submit(const JobSpec& job) {
  scheduler_.submit(job);
  start_ready_jobs();
}

void FacilitySimulator::start_ready_jobs() {
  if (starts_blocked_) return;
  const obs::ScopedTimer pass_timer(sched_pass_hist());
  const SimTime now = engine_.now();
  for (const JobStart& start : scheduler_.schedule_pass(now)) {
    jobs_started_counter().add();
    power_dirty_ = true;
    // Per-start policy math comes from the policy-epoch cache: the same
    // guards and the same floating-point expressions as the uncached
    // ApplicationModel calls, evaluated once per policy change.
    require(start.job.ref_runtime.sec() > 0.0,
            "ApplicationModel::runtime: reference runtime must be positive");
    const PolicyFactorCache::JobFactors& f = policy_cache_.factors(start.job);
    const Duration runtime = start.job.ref_runtime * f.time_factor;
    require(start.job.silicon_factor >= 0.0,
            "node_power: silicon_factor must be non-negative");
    const Power per_node_w =
        Power::watts(f.draw.watts(start.job.silicon_factor));
    const Power fleet_w = per_node_w * static_cast<double>(start.job.nodes);

    JobRecord record;
    record.spec = start.job;
    record.start_time = now;
    record.end_time = now + runtime;
    record.pstate = f.pstate;
    record.mode = policy_.bios_mode;
    record.node_power_w = per_node_w;
    record.node_energy = fleet_w * runtime;

    busy_node_power_w_.add(fleet_w.w());
    scheduler_.set_expected_end(start.job.id, record.end_time);
    engine_.schedule(record.end_time, SimEventKind::kFinish,
                     running_.put(record));
  }
}

void FacilitySimulator::on_finish(std::uint64_t slot) {
  const JobRecord record = running_.take(slot);
  power_dirty_ = true;
  // The start path's expression: the same bits leave as entered.
  const Power fleet_w =
      record.node_power_w * static_cast<double>(record.spec.nodes);
  busy_node_power_w_.subtract(fleet_w.w());
  // Compensated summation keeps the residual at a rounding of the peak
  // magnitude, so anything visibly negative is an accounting bug.
  HPCEM_ASSERT(busy_node_power_w_.value() > -1e-3,
               "busy power went negative");
  if (running_.live() == 0) busy_node_power_w_.reset();  // exact empty
  scheduler_.finish(record.spec.id, engine_.now());
  completed_.push_back(record);
  start_ready_jobs();
}

SimSnapshot FacilitySimulator::snapshot() const {
  SimSnapshot s;
  s.total_nodes = config_.inventory.compute_nodes;
  s.busy_nodes = scheduler_.busy_nodes();
  s.utilisation = scheduler_.utilisation();
  s.busy_node_power_w =
      Power::watts(std::max(0.0, busy_node_power_w_.value()));
  return s;
}

void FacilitySimulator::sample() {
  samples_counter().add();
  const SimTime now = engine_.now();
  // With no metering noise configured the draw is skipped entirely (the
  // factor is exactly 1.0 either way, and sample() is the only rng_
  // consumer during the run, so the stream is unperturbed).
  const double sigma = config_.metering_noise_sigma;
  const double noise = sigma == 0.0 ? 1.0 : 1.0 + rng_.normal(0.0, sigma);

  // Evaluate the sources in order, accumulating the boundary totals the
  // later sources (and the cabinet meter) see.  Sources are pure functions
  // of the snapshot, which only a job start or finish changes, so between
  // those the previous evaluation is reused verbatim.
  if (power_dirty_) {
    HPCEM_OBS_SPAN("sim.sample.power");
    SimSnapshot s = snapshot();
    Power metered_w;
    Power total_w;
    source_power_kw_.resize(composition_.size());
    for (std::size_t i = 0; i < composition_.size(); ++i) {
      const auto& source = composition_[i];
      s.metered_power_so_far_w = metered_w;
      s.total_power_so_far_w = total_w;
      const Power p = source->power(s);
      if (source->metered()) metered_w += p;
      total_w += p;
      source_power_kw_[i] = p.kw();
    }
    cached_metered_w_ = metered_w;
    power_dirty_ = false;
  }
  for (std::size_t i = 0; i < composition_.size(); ++i) {
    recorder_.record(
        source_channels_[i], now,
        source_power_kw_[i] * (composition_[i]->noisy() ? noise : 1.0));
  }

  HPCEM_OBS_SPAN("sim.sample.telemetry");
  recorder_.record(cabinet_channel_, now, cached_metered_w_.kw() * noise);
  recorder_.record(utilisation_channel_, now, scheduler_.utilisation());
  recorder_.record(queue_length_channel_, now,
                   static_cast<double>(scheduler_.queue_length()));
  recorder_.record(running_jobs_channel_, now,
                   static_cast<double>(scheduler_.running_count()));
}

PowerKw FacilitySimulator::mean_cabinet_kw(SimTime a, SimTime b) const {
  return PowerKw{recorder_.series(cabinet_channel_).mean_over(a, b)};
}

double FacilitySimulator::mean_utilisation(SimTime a, SimTime b) const {
  return recorder_.series(utilisation_channel_).mean_over(a, b);
}

Energy FacilitySimulator::cabinet_energy() const {
  // The channel is in kW; integrate() returns kW-seconds.
  const double kws = recorder_.series(cabinet_channel_).integrate();
  return Energy::kilojoules(kws);
}

}  // namespace hpcem
