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
  // Checked before any state changes: a rejected submit leaves the queue,
  // the running jobs and the free nodes as they were.
  require_state(live_ids_.insert(job.id),
                "Scheduler::submit: job id already queued or running: ",
                job.id);
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

/// The entry of job `id` in [first, last), scanning from `first`.
template <class It>
It find_id(It first, It last, JobId id) {
  return std::find_if(first, last, [id](const auto& e) { return e.id == id; });
}

}  // namespace

void Scheduler::ends_insert(SimTime end, JobId id, std::size_t nodes) {
  ends_.insert(end_lower_bound(ends_first(), ends_.end(), end, id),
               EndEntry{end, id, nodes});
}

void Scheduler::ends_erase(std::vector<EndEntry>::iterator pos) {
  const auto first = ends_first();
  if (pos - first > ends_.end() - pos) {
    ends_.erase(pos);
    return;
  }
  // Nearer the front, where finishes land: shift the prefix up one and
  // retire the first slot, so a front erase moves nothing.
  std::move_backward(first, pos, pos + 1);
  ++ends_head_;
  // Compact once the retired prefix outgrows the live entries: each
  // compaction moves at most as many entries as erases retired since.
  if (2 * ends_head_ >= ends_.size()) {
    ends_.erase(ends_.begin(), ends_first());
    ends_head_ = 0;
  }
}

void Scheduler::ends_move(std::vector<EndEntry>::iterator pos, SimTime to) {
  // One shift of the entries between the old and the new position, where
  // an erase plus an insert would shift everything behind either of them.
  const EndEntry moved{to, pos->id, pos->nodes};
  if (to > pos->end) {
    const auto dest = end_lower_bound(pos + 1, ends_.end(), to, moved.id);
    std::move(pos + 1, dest, pos);
    *(dest - 1) = moved;
  } else {
    const auto dest = end_lower_bound(ends_first(), pos, to, moved.id);
    std::move_backward(dest, pos, pos + 1);
    *dest = moved;
  }
}

Scheduler::Shadow Scheduler::shadow_for(std::size_t count) const {
  HPCEM_ASSERT(count <= config_.nodes && count > free_,
               "shadow for a job that fits or can never fit");
  // Sweep running jobs in (expected end, id) order, accumulating freed
  // nodes: a prefix scan of the filed buffer merged with this pass's
  // starts, which still wait at their walltime ends.
  std::size_t freed = free_;
  auto filed = ends_.begin() + static_cast<std::ptrdiff_t>(ends_head_);
  auto fresh = starting_.begin();
  while (filed != ends_.end() || fresh != starting_.end()) {
    const bool take_fresh =
        filed == ends_.end() ||
        (fresh != starting_.end() &&
         (fresh->end != filed->end ? fresh->end < filed->end
                                   : fresh->id < filed->id));
    const EndEntry& e = take_fresh ? *fresh++ : *filed++;
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
  // Starts of the previous pass that were never retimed keep their
  // walltime ends.
  for (const EndEntry& e : starting_) ends_insert(e.end, e.id, e.nodes);
  starting_.clear();
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
  free_ -= job.nodes;
  starting_.insert(
      end_lower_bound(starting_.begin(), starting_.end(), expected_end, id),
      EndEntry{expected_end, id, job.nodes});
  starts.push_back({std::move(job)});
  ++started_total_;
  settled_.reset();
}

void Scheduler::finish(JobId id, SimTime /*now*/) {
  if (const auto s = find_id(starting_.begin(), starting_.end(), id);
      s != starting_.end()) {
    free_ += s->nodes;
    starting_.erase(s);
  } else {
    // Finishes come in end order, so this scan almost always stops at the
    // front.
    const auto pos = find_id(ends_first(), ends_.end(), id);
    require_state(pos != ends_.end(), "Scheduler::finish: job not running: ",
                  id);
    free_ += pos->nodes;
    ends_erase(pos);
  }
  live_ids_.erase(id);
  ++finished_total_;
  settled_.reset();
}

void Scheduler::set_expected_end(JobId id, SimTime end) {
  if (const auto s = find_id(starting_.begin(), starting_.end(), id);
      s != starting_.end()) {
    // A start is filed once, at its realised end.  Nothing is settled:
    // the pass that started the job was not, and no pass ran since.
    ends_insert(end, id, s->nodes);
    starting_.erase(s);
    return;
  }
  const auto pos = find_id(ends_first(), ends_.end(), id);
  require_state(pos != ends_.end(),
                "Scheduler::set_expected_end: job not running: ", id);
  if (pos->end != end) {
    ends_move(pos, end);
    settled_.reset();
  }
}

}  // namespace hpcem
