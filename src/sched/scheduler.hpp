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
//
// Decisions depend on node counts alone: the scheduler keeps a free-node
// count, not a placement.  A caller that needs node identities composes a
// NodeAllocator (sched/allocator.hpp), allocating for each start in the
// order `schedule_pass` returns them and releasing on finish.
//
// Under FIFO, a pass that started nothing is "settled" until a start, a
// finish or a retime that moves an end: the free count and the shadow are
// unchanged and every job it examined stays rejected, so the next pass
// examines only the jobs submitted since, against the cached shadow.
//
// Running jobs sit in one buffer sorted by (expected end, id), which the
// shadow sweeps as a prefix.  Finishes land at its front, where an erase
// moves nothing.  A pass's starts wait in a short side list at their
// walltime ends until the caller retimes them, so each job is inserted
// into the buffer once, at its realised end.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "sched/id_set.hpp"
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
};

/// FIFO + EASY backfill scheduler.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);

  /// Enqueue a job.  Jobs wider than the machine, and jobs whose id is
  /// already queued or running, are rejected (throws, nothing changes).
  void submit(JobSpec job);

  /// Run a scheduling pass at time `now`; returns the jobs to start.
  /// The caller must later call `finish` for each started job.
  [[nodiscard]] std::vector<JobStart> schedule_pass(SimTime now);

  /// Record that a started job finished and free its nodes.  O(1) for the
  /// job with the earliest expected end; others cost a scan.
  void finish(JobId id, SimTime now);

  /// Tell the scheduler the actual expected end of a started job (the
  /// caller knows the realised runtime under the active policy).  Improves
  /// backfill planning; falls back to the walltime estimate otherwise.
  /// Cheapest before the next pass; a later retime costs a scan.
  void set_expected_end(JobId id, SimTime end);

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const {
    return ends_.size() - ends_head_ + starting_.size();
  }
  [[nodiscard]] std::size_t free_nodes() const { return free_; }
  [[nodiscard]] std::size_t busy_nodes() const {
    return config_.nodes - free_;
  }
  [[nodiscard]] std::size_t total_nodes() const { return config_.nodes; }
  [[nodiscard]] double utilisation() const {
    return static_cast<double>(busy_nodes()) /
           static_cast<double>(total_nodes());
  }

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
  /// Record a job as running and queue its JobStart.
  void start(JobSpec job, SimTime now, std::vector<JobStart>& starts);

  /// One running job in the expected-end-sorted shadow buffer.
  struct EndEntry {
    SimTime end;
    JobId id;
    std::size_t nodes;
  };
  /// Maintain the sorted end-time buffer across passes instead of
  /// rebuilding and sorting it on every scheduling pass: a binary-search
  /// insert per retimed start, an O(1) erase at the front (where finishes
  /// land) and one contiguous shift per later retime.
  void ends_insert(SimTime end, JobId id, std::size_t nodes);
  void ends_erase(std::vector<EndEntry>::iterator pos);
  void ends_move(std::vector<EndEntry>::iterator pos, SimTime to);
  [[nodiscard]] std::vector<EndEntry>::iterator ends_first() {
    return ends_.begin() + static_cast<std::ptrdiff_t>(ends_head_);
  }

  /// The expected end by which `count` (more than the free) nodes will be
  /// free, assuming running jobs end at their expected ends, and how many
  /// nodes are free then beyond the requirement.  The shadow time of a
  /// pass at `now` is max(end, now).
  struct Shadow {
    SimTime end;
    std::size_t extra_nodes;
  };
  [[nodiscard]] Shadow shadow_for(std::size_t count) const;

  /// What a FIFO pass that started nothing leaves for the next one.
  struct Settled {
    Shadow shadow;
    /// Queue positions behind the head already examined and rejected.
    std::size_t examined;
    /// Time of the latest pass; the prune holds only while time advances.
    SimTime now;
    /// Shortest walltime among jobs rejected on the shadow test: while
    /// now + min_walltime > now, a later `now` keeps them rejected.
    Duration min_walltime;
  };

  SchedulerConfig config_;
  std::size_t free_;
  std::deque<JobSpec> queue_;
  /// Ids of the queued and running jobs: a submit of a live id throws.
  JobIdSet live_ids_;
  /// Running jobs sorted by (expected end, id) — the backfill shadow
  /// sweeps a prefix of this instead of re-sorting per pass.
  std::vector<EndEntry> ends_;
  /// Entries of `ends_` before this index are retired finishes.
  std::size_t ends_head_ = 0;
  /// Starts of the latest pass not yet retimed, at their walltime ends in
  /// the same order.  A retime files the job in `ends_` at its realised
  /// end, so each start is inserted there once.
  std::vector<EndEntry> starting_;
  /// Set while only tail submits followed a FIFO pass that started
  /// nothing; cleared by any start, finish or end-moving retime.
  std::optional<Settled> settled_;
  /// order_queue scratch (priority keys + permutation), reused per pass.
  std::vector<double> priority_keys_;
  std::vector<std::size_t> order_perm_;
  std::uint64_t started_total_ = 0;
  std::uint64_t finished_total_ = 0;
  std::uint64_t passes_total_ = 0;
};

}  // namespace hpcem
