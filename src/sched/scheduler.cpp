#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace hpcem {

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config), free_(config.nodes) {
  require(config.nodes > 0, "Scheduler: need at least one node");
}

void Scheduler::submit(JobSpec job) {
  require(job.nodes >= 1 && job.nodes <= config_.nodes,
          "Scheduler::submit: job size must fit the machine: job ", job.id);
  require(job.requested_walltime.sec() > 0.0,
          "Scheduler::submit: walltime must be positive");
  queue_.push_back(std::move(job));
}

namespace {

/// The first entry of [first, last) not ordered before (end, id) in the
/// buffer's (expected end, id) order.
template <class It>
It end_lower_bound(It first, It last, SimTime end, JobId id) {
  return std::lower_bound(first, last, end, [id](const auto& e, SimTime t) {
    if (e.end != t) return e.end < t;
    return e.id < id;
  });
}

}  // namespace

std::vector<Scheduler::EndEntry>::iterator Scheduler::ends_find(SimTime end,
                                                                JobId id) {
  const auto pos = end_lower_bound(ends_.begin(), ends_.end(), end, id);
  HPCEM_ASSERT(pos != ends_.end() && pos->id == id && pos->end == end,
               "shadow buffer out of sync with running set");
  return pos;
}

void Scheduler::ends_insert(SimTime end, JobId id, std::size_t nodes) {
  ends_.insert(end_lower_bound(ends_.begin(), ends_.end(), end, id),
               EndEntry{end, id, nodes});
}

void Scheduler::ends_erase(SimTime end, JobId id) {
  ends_.erase(ends_find(end, id));
}

void Scheduler::ends_move(SimTime from, SimTime to, JobId id) {
  // One shift of the entries between the old and the new position, where
  // an erase plus an insert would shift everything behind either of them.
  const auto pos = ends_find(from, id);
  const EndEntry moved{to, id, pos->nodes};
  if (to > from) {
    const auto dest = end_lower_bound(pos + 1, ends_.end(), to, id);
    std::move(pos + 1, dest, pos);
    *(dest - 1) = moved;
  } else {
    const auto dest = end_lower_bound(ends_.begin(), pos, to, id);
    std::move_backward(dest, pos, pos + 1);
    *dest = moved;
  }
}

Scheduler::Shadow Scheduler::shadow_for(std::size_t count) const {
  HPCEM_ASSERT(count <= config_.nodes && count > free_,
               "shadow for a job that fits or can never fit");
  // Sweep running jobs in expected-end order, accumulating freed nodes —
  // a prefix scan of the incrementally maintained buffer.
  std::size_t freed = free_;
  for (const EndEntry& e : ends_) {
    freed += e.nodes;
    if (freed >= count) return {e.end, freed - count};
  }
  // Unreachable for feasible jobs: all running jobs ending frees the
  // entire machine, which holds any job that passed submit validation.
  HPCEM_ASSERT(false, "shadow_for: job can never run");
  return {SimTime(), 0};
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

  // A settled pass carries over only while time advances far enough for
  // every walltime it rejected to still end after the shadow.
  if (settled_ && !(now >= settled_->now &&
                    now + settled_->min_walltime > now)) {
    settled_.reset();
  }
  Settled pass{};
  if (settled_) {
    // Same free count and running set: the head still cannot fit, the
    // shadow is the cached one, and the examined jobs stay rejected.
    pass = *settled_;
  } else {
    order_queue(now);
    // Phase 1: start jobs from the head while they fit (in queue order:
    // submission order under FIFO, priority order otherwise).
    while (!queue_.empty() && queue_.front().nodes <= free_) {
      JobSpec job = std::move(queue_.front());
      queue_.pop_front();
      start(std::move(job), now, starts);
    }
    if (queue_.empty()) return starts;
    pass = {shadow_for(queue_.front().nodes), 0, now,
            Duration::seconds(std::numeric_limits<double>::infinity())};
  }

  // Phase 2: EASY backfill.  The head job gets a shadow reservation; a
  // later job may start now iff (a) it fits the free nodes, and (b) either
  // it finishes by the shadow time or it fits into the nodes left over at
  // the shadow time.
  const SimTime shadow_time = std::max(pass.shadow.end, now);
  std::size_t examined = pass.examined;
  for (auto it = queue_.begin() + static_cast<std::ptrdiff_t>(1 + examined);
       it != queue_.end() && examined < config_.backfill_depth; ++examined) {
    const std::size_t want = it->nodes;
    const bool fits_now = want <= free_;
    if (!fits_now) {
      ++it;
      continue;
    }
    const bool ends_before_shadow =
        now + it->requested_walltime <= shadow_time;
    const bool fits_shadow_slack = want <= pass.shadow.extra_nodes;
    if (!ends_before_shadow && !fits_shadow_slack) {
      pass.min_walltime = std::min(pass.min_walltime, it->requested_walltime);
      ++it;
      continue;
    }
    JobSpec job = std::move(*it);
    it = queue_.erase(it);
    start(std::move(job), now, starts);
  }
  if (starts.empty() && config_.discipline == QueueDiscipline::kFifo) {
    settled_ = Settled{pass.shadow, examined, now, pass.min_walltime};
  }
  return starts;
}

void Scheduler::start(JobSpec job, SimTime now,
                      std::vector<JobStart>& starts) {
  const JobId id = job.id;
  const SimTime expected_end = now + job.requested_walltime;
  const bool fresh =
      running_.emplace(id, Running{job.nodes, expected_end}).second;
  require_state(fresh, "Scheduler: job id already running: ", id);
  free_ -= job.nodes;
  ends_insert(expected_end, id, job.nodes);
  starts.push_back({std::move(job)});
  ++started_total_;
  settled_.reset();
}

void Scheduler::finish(JobId id, SimTime /*now*/) {
  auto it = running_.find(id);
  require_state(it != running_.end(), "Scheduler::finish: job not running: ",
                id);
  free_ += it->second.nodes;
  ends_erase(it->second.expected_end, id);
  running_.erase(it);
  ++finished_total_;
  settled_.reset();
}

void Scheduler::set_expected_end(JobId id, SimTime end) {
  auto it = running_.find(id);
  require_state(it != running_.end(),
                "Scheduler::set_expected_end: job not running: ", id);
  if (it->second.expected_end != end) {
    ends_move(it->second.expected_end, end, id);
    it->second.expected_end = end;
    settled_.reset();
  }
}

}  // namespace hpcem
