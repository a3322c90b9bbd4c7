#include "sched/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config), allocator_(config.nodes) {}

void Scheduler::submit(JobSpec job) {
  require(job.nodes >= 1 && job.nodes <= config_.nodes,
          "Scheduler::submit: job size must fit the machine: ", job.app);
  require(job.requested_walltime.sec() > 0.0,
          "Scheduler::submit: walltime must be positive");
  queue_.push_back(std::move(job));
}

void Scheduler::ends_insert(SimTime end, JobId id, std::size_t nodes) {
  const auto pos = std::lower_bound(
      ends_.begin(), ends_.end(), std::make_pair(end, id),
      [](const EndEntry& e, const std::pair<SimTime, JobId>& key) {
        if (e.end != key.first) return e.end < key.first;
        return e.id < key.second;
      });
  ends_.insert(pos, EndEntry{end, id, nodes});
}

void Scheduler::ends_erase(SimTime end, JobId id) {
  const auto pos = std::lower_bound(
      ends_.begin(), ends_.end(), std::make_pair(end, id),
      [](const EndEntry& e, const std::pair<SimTime, JobId>& key) {
        if (e.end != key.first) return e.end < key.first;
        return e.id < key.second;
      });
  HPCEM_ASSERT(pos != ends_.end() && pos->id == id && pos->end == end,
               "shadow buffer out of sync with running set");
  ends_.erase(pos);
}

Scheduler::Shadow Scheduler::shadow_for(std::size_t count,
                                        SimTime now) const {
  HPCEM_ASSERT(count <= config_.nodes, "shadow for oversized job");
  if (allocator_.free_count() >= count) {
    return {now, allocator_.free_count() - count};
  }
  // Sweep running jobs in expected-end order, accumulating freed nodes —
  // a prefix scan of the incrementally maintained buffer.
  std::size_t freed = allocator_.free_count();
  for (const EndEntry& e : ends_) {
    freed += e.nodes;
    if (freed >= count) {
      return {std::max(e.end, now), freed - count};
    }
  }
  // Unreachable for feasible jobs: all running jobs ending frees the
  // entire machine, which holds any job that passed submit validation.
  HPCEM_ASSERT(false, "shadow_for: job can never run");
  return {now, 0};
}

double Scheduler::priority_of(const JobSpec& job, SimTime now) const {
  const PriorityWeights& w = config_.weights;
  double base = w.standard;
  switch (job.qos) {
    case QosClass::kStandard:
      base = w.standard;
      break;
    case QosClass::kShort:
      base = w.short_qos;
      break;
    case QosClass::kLargeScale:
      base = w.largescale;
      break;
    case QosClass::kLowPriority:
      base = w.lowpriority;
      break;
  }
  const double wait_h = std::max(0.0, (now - job.submit_time).hrs());
  return base + w.per_wait_hour * wait_h +
         w.per_node * static_cast<double>(job.nodes);
}

void Scheduler::order_queue(SimTime now) {
  if (config_.discipline == QueueDiscipline::kFifo) return;
  // Priority keys are pure in (job, now): compute each once, then
  // stable-sort a permutation — same order as sorting with a comparator
  // that recomputes priority_of per comparison, at O(n) evaluations.
  const std::size_t n = queue_.size();
  priority_keys_.clear();
  priority_keys_.reserve(n);
  for (const JobSpec& j : queue_) priority_keys_.push_back(priority_of(j, now));
  order_perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_perm_[i] = i;
  // Stable sort keeps submission order among equal priorities.
  std::stable_sort(order_perm_.begin(), order_perm_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return priority_keys_[a] > priority_keys_[b];
                   });
  std::deque<JobSpec> ordered;
  for (std::size_t i : order_perm_) ordered.push_back(std::move(queue_[i]));
  queue_ = std::move(ordered);
}

std::vector<JobStart> Scheduler::schedule_pass(SimTime now) {
  ++passes_total_;
  std::vector<JobStart> starts;
  order_queue(now);

  // Phase 1: start jobs from the head while they fit (in queue order:
  // submission order under FIFO, priority order otherwise).
  while (!queue_.empty() && queue_.front().nodes <= allocator_.free_count()) {
    JobSpec job = std::move(queue_.front());
    queue_.pop_front();
    auto runs = allocator_.allocate(job.nodes);
    HPCEM_ASSERT(runs.has_value(), "allocation must succeed after fit check");
    start(std::move(job), std::move(*runs), now, starts);
  }
  if (queue_.empty()) return starts;

  // Phase 2: EASY backfill.  The head job gets a shadow reservation; a
  // later job may start now iff (a) it fits the free nodes, and (b) either
  // it finishes by the shadow time or it fits into the nodes left over at
  // the shadow time.
  const Shadow shadow = shadow_for(queue_.front().nodes, now);
  std::size_t examined = 0;
  for (auto it = std::next(queue_.begin());
       it != queue_.end() && examined < config_.backfill_depth; ++examined) {
    const std::size_t want = it->nodes;
    const bool fits_now = want <= allocator_.free_count();
    if (!fits_now) {
      ++it;
      continue;
    }
    const bool ends_before_shadow =
        now + it->requested_walltime <= shadow.time;
    const bool fits_shadow_slack = want <= shadow.extra_nodes;
    if (!ends_before_shadow && !fits_shadow_slack) {
      ++it;
      continue;
    }
    JobSpec job = std::move(*it);
    it = queue_.erase(it);
    auto runs = allocator_.allocate(job.nodes);
    HPCEM_ASSERT(runs.has_value(), "backfill allocation must succeed");
    start(std::move(job), std::move(*runs), now, starts);
  }
  return starts;
}

void Scheduler::start(JobSpec job, std::vector<NodeRun> runs, SimTime now,
                      std::vector<JobStart>& starts) {
  const JobId id = job.id;
  const SimTime expected_end = now + job.requested_walltime;
  ends_insert(expected_end, id, job.nodes);
  running_.emplace(id, Running{runs, job.nodes, expected_end});
  starts.push_back({std::move(job), std::move(runs)});
  ++started_total_;
}

void Scheduler::finish(JobId id, SimTime /*now*/) {
  auto it = running_.find(id);
  require_state(it != running_.end(), "Scheduler::finish: job not running: ",
                id);
  allocator_.release(it->second.runs);
  ends_erase(it->second.expected_end, id);
  running_.erase(it);
  ++finished_total_;
}

void Scheduler::set_expected_end(JobId id, SimTime end) {
  auto it = running_.find(id);
  require_state(it != running_.end(),
                "Scheduler::set_expected_end: job not running: ", id);
  if (it->second.expected_end != end) {
    ends_erase(it->second.expected_end, id);
    ends_insert(end, id, it->second.nodes);
  }
  it->second.expected_end = end;
}

const std::vector<NodeRun>& Scheduler::allocation(JobId id) const {
  auto it = running_.find(id);
  require_state(it != running_.end(),
                "Scheduler::allocation: job not running: ", id);
  return it->second.runs;
}

}  // namespace hpcem
