#include "sim/engine.hpp"

#include "util/error.hpp"

namespace hpcem {

void SimEngine::push(SimTime when, std::uint64_t key, SimEventKind kind,
                     std::uint64_t payload) {
  require(when >= now_, "SimEngine::schedule: cannot schedule in the past");
  queue_.push(QueuedEvent{when, key, kind, payload});
}

void SimEngine::schedule_static(SimTime when, SimEventKind kind,
                                std::uint64_t payload) {
  push(when, (kStaticBand << kBandShift) | next_static_++, kind, payload);
}

void SimEngine::schedule(SimTime when, SimEventKind kind,
                         std::uint64_t payload) {
  push(when, runtime_key(), kind, payload);
}

void SimEngine::schedule_run(SimEventKind kind,
                             std::span<const RunEvent> events) {
  run_.erase(run_.begin(),
             run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
  run_head_ = 0;
  for (const RunEvent& e : events) {
    if (!run_.empty() && e.time < run_.back().time) {
      push(e.time, runtime_key(), kind, e.payload);
      continue;
    }
    // Keys only grow, so appending keeps the FIFO in (time, key) order.
    require(e.time >= now_, "SimEngine::schedule: cannot schedule in the past");
    run_.push_back(QueuedEvent{e.time, runtime_key(), kind, e.payload});
  }
}

void SimEngine::set_workload_stream(SimTime start, Duration period,
                                    SimTime end) {
  require(period.sec() > 0.0,
          "SimEngine::set_workload_stream: period must be positive");
  workload_ = Stream{start < end, start, period, end};
}

void SimEngine::set_sample_stream(SimTime start, Duration period,
                                  SimTime end) {
  require(period.sec() > 0.0,
          "SimEngine::set_sample_stream: period must be positive");
  sample_ = Stream{start < end, start, period, end};
}

bool SimEngine::next(SimTime until, SimEvent& out) {
  // Best of four candidates: heap top, run head, workload tick, sample
  // tick — minimum (time, band-key).  Stream candidates carry a bare band
  // key: a train never has two ticks at one instant, so the counter half
  // is irrelevant.
  bool found = false;
  SimTime best_time{};
  std::uint64_t best_key = 0;
  int best = -1;  // 0 = heap, 1 = workload, 2 = sample, 3 = run

  if (!queue_.empty()) {
    const QueuedEvent& top = queue_.top();
    found = true;
    best_time = top.time;
    best_key = top.key;
    best = 0;
  }
  if (run_head_ < run_.size()) {
    const QueuedEvent& head = run_[run_head_];
    if (!found || head.time < best_time ||
        (head.time == best_time && head.key < best_key)) {
      found = true;
      best_time = head.time;
      best_key = head.key;
      best = 3;
    }
  }
  const auto consider = [&](const Stream& s, std::uint64_t band, int which) {
    if (!s.active) return;
    const std::uint64_t key = band << kBandShift;
    if (!found || s.next_tick < best_time ||
        (s.next_tick == best_time && key < best_key)) {
      found = true;
      best_time = s.next_tick;
      best_key = key;
      best = which;
    }
  };
  consider(workload_, kWorkloadBand, 1);
  consider(sample_, kSampleBand, 2);

  if (!found || best_time > until) return false;

  if (best == 0) {
    const QueuedEvent& top = queue_.top();
    out = SimEvent{top.time, top.kind, top.payload};
    queue_.pop();
  } else if (best == 3) {
    const QueuedEvent& head = run_[run_head_];
    out = SimEvent{head.time, head.kind, head.payload};
    if (++run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    }
  } else {
    Stream& s = best == 1 ? workload_ : sample_;
    out = SimEvent{s.next_tick,
                   best == 1 ? SimEventKind::kWorkloadHour
                             : SimEventKind::kSample,
                   0};
    s.next_tick = s.next_tick + s.period;
    if (!(s.next_tick < s.end)) s.active = false;
  }
  HPCEM_ASSERT(out.time >= now_, "event queue time order");
  now_ = out.time;
  ++processed_;
  return true;
}

void SimEngine::advance_to(SimTime t) {
  if (t > now_) now_ = t;
}

}  // namespace hpcem
