// Whole-facility simulation: scheduler + workload + power + telemetry.
//
// `FacilitySimulator` reproduces the measurement setup behind the paper's
// Figures 1-3: a full machine running a production job mix at high
// utilisation, with the cabinet power (compute nodes + switches + cabinet
// overheads — the paper's metering boundary) sampled on a fixed interval,
// and operational policy changes (BIOS mode, default CPU frequency) taking
// effect at scheduled instants for newly started jobs.
//
// The power breakdown is composable: the simulator drives an ordered list
// of `PowerSource` components (sim/composition.hpp) and records the
// scheduler-state channels (utilisation, queue length, running jobs)
// itself.  The default composition reproduces the paper's cabinet boundary
// exactly; cooling, CDU, filesystem and idle-suspension models plug in
// without touching the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "power/facility_power.hpp"
#include "sched/scheduler.hpp"
#include "sim/composition.hpp"
#include "sim/engine.hpp"
#include "telemetry/recorder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/policy.hpp"
#include "workload/policy_cache.hpp"

namespace hpcem {

/// Simulation tunables.
struct FacilitySimConfig {
  FacilityInventory inventory{};
  NodePowerParams node_params{};
  SwitchPowerModel switch_model{};
  CabinetOverheadModel cabinet_model{};
  WorkloadGenParams gen{};
  /// Queue discipline for the embedded scheduler.
  QueueDiscipline sched_discipline = QueueDiscipline::kFifo;
  PriorityWeights sched_weights{};
  /// Telemetry sampling cadence (the paper's cabinet metering is coarse).
  Duration sample_interval = Duration::minutes(30.0);
  /// Multiplicative per-sample metering noise (std dev).
  double metering_noise_sigma = 0.006;
  std::uint64_t seed = 0xA2C4E6;
};

/// Event-driven facility simulator.
class FacilitySimulator {
 public:
  /// Run with the standard composition (nodes + switches + cabinet
  /// overheads inside the metering boundary).
  FacilitySimulator(const AppCatalog& catalog, FacilitySimConfig config);

  /// Run with an explicit component list (see sim/composition.hpp).
  FacilitySimulator(const AppCatalog& catalog, FacilitySimConfig config,
                    SimComposition composition);

  /// The canonical cabinet-boundary breakdown for a configuration — what
  /// the two-argument constructor installs (with the default idle policy).
  [[nodiscard]] static SimComposition standard_composition(
      const FacilitySimConfig& config, IdlePowerPolicy idle = {});

  /// Policy for jobs started from now on (running jobs keep their settings,
  /// as on the real service where the frequency is fixed at job launch).
  void set_policy(const OperatingPolicy& policy) { policy_ = policy; }
  [[nodiscard]] const OperatingPolicy& policy() const { return policy_; }

  /// Apply a policy at an instant during `run` (recorded now, armed when
  /// the simulation starts).  A change scheduled before the run window arms
  /// the policy at the window start (the latest pre-window change wins);
  /// changes at or after the window end are ignored.
  void schedule_policy_change(SimTime when, OperatingPolicy policy);

  /// Block job starts in [block_from, end): a maintenance reservation.
  /// Running jobs keep running (the drain), so utilisation decays from
  /// `block_from` and recovers after `end` — the dips a real facility's
  /// power timeline shows around maintenance sessions.
  void schedule_maintenance(SimTime block_from, SimTime end);

  /// Generate the workload and simulate [start, end).  May be called once.
  void run(SimTime start, SimTime end);

  /// Simulate [start, end) replaying an explicit job trace instead of the
  /// synthetic generator (e.g. a converted sacct dump; see
  /// workload/trace.hpp).  Jobs submitted outside the window are ignored:
  /// `submit_time == start` is inside, `submit_time == end` is outside
  /// (the window is half-open, matching run()).  Job ids must be unique
  /// and every job's AppId must name a catalogue entry, across the whole
  /// trace (throws InvalidArgument otherwise).
  /// May be called once, instead of run().
  void run_trace(const std::vector<JobSpec>& jobs, SimTime start,
                 SimTime end);

  [[nodiscard]] const Recorder& telemetry() const { return recorder_; }
  /// Interned handle of the cabinet-meter channel (resolved at
  /// construction; pair with telemetry().series()).
  [[nodiscard]] ChannelId cabinet_channel() const {
    return cabinet_channel_;
  }
  [[nodiscard]] const std::vector<JobRecord>& completed() const {
    return completed_;
  }
  /// Jobs the completed log was reserved for when the run started: the
  /// in-window trace size, or the generator's upper estimate (see
  /// run_impl).  Exceeding it costs one reallocation, never an output.
  [[nodiscard]] std::size_t completed_reserved() const {
    return completed_reserved_;
  }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }

  /// Mean cabinet power over a window, kW.
  [[nodiscard]] PowerKw mean_cabinet_kw(SimTime a, SimTime b) const;
  /// Mean node utilisation over a window.
  [[nodiscard]] double mean_utilisation(SimTime a, SimTime b) const;
  /// Cabinet energy over the whole simulated span.
  [[nodiscard]] Energy cabinet_energy() const;

 private:
  /// Payloads parked by integer slot (an event payload indexes them);
  /// freed slots are recycled, so the pool is bounded by its peak number
  /// of live entries.
  template <class T>
  class SlotPool {
   public:
    [[nodiscard]] std::uint64_t put(const T& item) {
      if (free_.empty()) {
        items_.push_back(item);
        return items_.size() - 1;
      }
      const std::uint64_t slot = free_.back();
      free_.pop_back();
      items_[slot] = item;
      return slot;
    }
    [[nodiscard]] T take(std::uint64_t slot) {
      HPCEM_ASSERT(slot < items_.size(), "slot out of range");
      free_.push_back(slot);
      return items_[slot];
    }
    [[nodiscard]] std::size_t live() const {
      return items_.size() - free_.size();
    }

   private:
    std::vector<T> items_;
    std::vector<std::uint64_t> free_;
  };

  void dispatch(const SimEvent& ev);
  void on_submit(const JobSpec& job);
  void on_finish(std::uint64_t slot);
  void start_ready_jobs();
  void generate_hour(SimTime t);
  void sample();

  /// Machine state at the current instant (power accumulators zeroed).
  [[nodiscard]] SimSnapshot snapshot() const;

  /// Shared run skeleton; `trace` empty means generate synthetically.
  void run_impl(const std::vector<JobSpec>& trace, bool use_trace,
                SimTime start, SimTime end);

  const AppCatalog* catalog_;
  FacilitySimConfig config_;
  SimComposition composition_;
  /// Interned channel handles, resolved once at construction: the cabinet
  /// meter, one per source (in composition order) and the scheduler-state
  /// channels.  sample() records through these — no per-sample name lookup.
  ChannelId cabinet_channel_;
  std::vector<ChannelId> source_channels_;
  ChannelId utilisation_channel_;
  ChannelId queue_length_channel_;
  ChannelId running_jobs_channel_;
  OperatingPolicy policy_ = OperatingPolicy::baseline();
  Rng rng_;
  SimEngine engine_;
  Scheduler scheduler_;
  /// Engaged by run() (a trace replay has no generator).
  std::optional<WorkloadGenerator> generator_;
  Recorder recorder_;
  std::vector<std::pair<SimTime, OperatingPolicy>> pending_changes_;
  std::vector<std::pair<SimTime, SimTime>> maintenance_;
  bool starts_blocked_ = false;
  /// Running jobs by slot (the kFinish payload); each record is complete
  /// from its start.
  SlotPool<JobRecord> running_;
  std::vector<JobRecord> completed_;
  std::size_t completed_reserved_ = 0;
  /// Fleet power of running jobs; compensated because a long campaign
  /// accumulates hundreds of thousands of add/subtract pairs.
  CompensatedSum busy_node_power_w_;
  bool ran_ = false;

  /// Per-(app, policy) factor cache, rebuilt at each policy epoch.
  PolicyFactorCache policy_cache_;
  /// Policies armed for in-window change events (kPolicyChange payload
  /// indexes this).
  std::vector<OperatingPolicy> armed_policies_;
  /// Parked JobSpec payloads for queued submit events (kSubmit payload
  /// indexes this), bounded by the peak number of in-flight submits.
  SlotPool<JobSpec> job_slots_;
  /// generate_hour scratch: the hour's submits as one engine run.
  std::vector<SimEngine::RunEvent> submit_run_;
  SimTime run_end_{};
  /// Set by a job start or finish, the only events that change the
  /// snapshot the sources read; cleared when sample() re-evaluates.
  bool power_dirty_ = true;
  /// Cached per-source powers (kW) and metered total of the last
  /// evaluated sample.
  std::vector<double> source_power_kw_;
  Power cached_metered_w_;
};

}  // namespace hpcem
