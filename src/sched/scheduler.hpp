// Batch scheduler: FIFO with EASY backfill over a node pool.
//
// This is the Slurm-shaped substrate under the facility simulation.  The
// discipline is the classic EASY algorithm: the queue head gets a
// reservation at the earliest time enough nodes will be free (computed from
// running jobs' walltime estimates), and later jobs may jump the queue only
// if starting them now cannot delay that reservation.  Walltime *estimates*
// come from the jobs' requested walltime; actual runtimes are usually
// shorter, which is what creates backfill opportunities — and the >90%
// utilisation the paper reports.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sched/allocator.hpp"
#include "util/sim_time.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

/// Queue ordering discipline.
enum class QueueDiscipline {
  kFifo,      ///< strict submission order (the default)
  kPriority,  ///< QoS base priority + wait-time aging + size boost
};

/// Priority-discipline weights (ignored under kFifo).
struct PriorityWeights {
  /// Base priority per QoS class.
  double standard = 1000.0;
  double short_qos = 3000.0;
  double largescale = 2000.0;
  double lowpriority = 0.0;
  /// Priority gained per hour of queue wait (aging; prevents starvation).
  double per_wait_hour = 100.0;
  /// Priority per node of job size (helps wide jobs assemble).
  double per_node = 0.2;

  friend bool operator==(const PriorityWeights&,
                         const PriorityWeights&) = default;
};

/// Scheduler tunables.
struct SchedulerConfig {
  std::size_t nodes = 5860;
  /// How many queued jobs behind the head are examined for backfill.
  std::size_t backfill_depth = 200;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  PriorityWeights weights{};
};

/// A job the scheduler has decided to start now.
struct JobStart {
  JobSpec job;
  /// The nodes the job runs on, as ascending runs.
  std::vector<NodeRun> runs;
};

/// FIFO + EASY backfill scheduler.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);

  /// Enqueue a job.  Jobs wider than the machine are rejected (throws).
  void submit(JobSpec job);

  /// Run a scheduling pass at time `now`; returns the jobs to start.
  /// The caller must later call `finish` for each started job.
  [[nodiscard]] std::vector<JobStart> schedule_pass(SimTime now);

  /// Record that a started job finished and free its nodes.
  void finish(JobId id, SimTime now);

  /// Tell the scheduler the actual expected end of a started job (the
  /// caller knows the realised runtime under the active policy).  Improves
  /// backfill planning; falls back to the walltime estimate otherwise.
  void set_expected_end(JobId id, SimTime end);

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] std::size_t free_nodes() const {
    return allocator_.free_count();
  }
  [[nodiscard]] std::size_t busy_nodes() const {
    return allocator_.busy_count();
  }
  [[nodiscard]] std::size_t total_nodes() const {
    return allocator_.node_count();
  }
  [[nodiscard]] double utilisation() const {
    return static_cast<double>(busy_nodes()) /
           static_cast<double>(total_nodes());
  }

  /// Nodes allocated to a running job, as ascending runs.
  [[nodiscard]] const std::vector<NodeRun>& allocation(JobId id) const;

  /// Lifetime counters.
  [[nodiscard]] std::uint64_t started_total() const { return started_total_; }
  [[nodiscard]] std::uint64_t finished_total() const {
    return finished_total_;
  }
  [[nodiscard]] std::uint64_t passes_total() const { return passes_total_; }

  /// Priority score of a job at `now` under the configured weights
  /// (exposed for tests and tooling; meaningful under kPriority).
  [[nodiscard]] double priority_of(const JobSpec& job, SimTime now) const;

 private:
  /// Reorder the queue per the discipline (no-op under kFifo).
  void order_queue(SimTime now);
  struct Running {
    std::vector<NodeRun> runs;
    std::size_t nodes;
    SimTime expected_end;
  };
  /// Record a job as running on `runs` and queue its JobStart.
  void start(JobSpec job, std::vector<NodeRun> runs, SimTime now,
             std::vector<JobStart>& starts);

  /// One running job in the expected-end-sorted shadow buffer.
  struct EndEntry {
    SimTime end;
    JobId id;
    std::size_t nodes;
  };
  /// Maintain the sorted end-time buffer across passes: O(log n) locate +
  /// contiguous shift per start/finish/retime, instead of rebuilding and
  /// sorting the whole buffer on every scheduling pass.
  void ends_insert(SimTime end, JobId id, std::size_t nodes);
  void ends_erase(SimTime end, JobId id);

  /// Earliest time at which `count` nodes will be free, assuming running
  /// jobs end at their expected ends; also reports how many nodes are free
  /// at that shadow time beyond the requirement.
  struct Shadow {
    SimTime time;
    std::size_t extra_nodes;
  };
  [[nodiscard]] Shadow shadow_for(std::size_t count, SimTime now) const;

  SchedulerConfig config_;
  NodeAllocator allocator_;
  std::deque<JobSpec> queue_;
  std::unordered_map<JobId, Running> running_;
  /// Running jobs sorted by (expected end, id) — the backfill shadow
  /// sweeps a prefix of this instead of re-sorting per pass.
  std::vector<EndEntry> ends_;
  /// order_queue scratch (priority keys + permutation), reused per pass.
  std::vector<double> priority_keys_;
  std::vector<std::size_t> order_perm_;
  std::uint64_t started_total_ = 0;
  std::uint64_t finished_total_ = 0;
  std::uint64_t passes_total_ = 0;
};

}  // namespace hpcem
