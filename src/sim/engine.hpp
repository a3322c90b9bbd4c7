// Discrete-event simulation engine.
//
// A deterministic event loop over *typed* events: each event is a small
// POD (timestamp, kind tag, integer payload) the caller dispatches on —
// no per-event heap allocation or type erasure on the hot path.  Periodic
// tick trains (telemetry samples, workload-generation hours) are not
// pre-scheduled event-by-event; they are lazy streams that materialise
// the next tick on demand, so a year-long campaign does not build a
// multi-million-entry calendar up front.
//
// Determinism: ties at equal timestamps are broken by a total order that
// reproduces the observable order of the original closure calendar,
// where pre-run scheduling handed out global sequence numbers first and
// runtime scheduling later.  At one instant the order is
//
//   static events (pre-run, FIFO)  <  workload tick  <  sample tick
//     <  runtime events (scheduled during the run, FIFO)
//
// encoded as a (band, counter) key — see `SimEngine::schedule` /
// `schedule_static` and DESIGN.md §9.  Runtime events handed over as a
// run sorted by time (the hourly generated submits) take their counters
// when they are handed over, as `schedule` would, but wait in a FIFO beside
// the heap, which then holds only finishes and statics.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "util/sim_time.hpp"

namespace hpcem {

/// Event vocabulary of the facility simulation.  The engine never
/// interprets the tag or payload; the caller's dispatch switch does.
enum class SimEventKind : std::uint8_t {
  kPolicyChange,      ///< payload: index into the caller's armed-policy list
  kMaintenanceBegin,  ///< payload unused
  kMaintenanceEnd,    ///< payload unused
  kSubmit,            ///< payload: caller's job-slot index
  kWorkloadHour,      ///< lazy periodic tick (no payload)
  kSample,            ///< lazy periodic tick (no payload)
  kFinish,            ///< payload: caller's running-job slot index
};

/// One due event, as handed to the caller by `next`.
struct SimEvent {
  SimTime time{};
  SimEventKind kind = SimEventKind::kSample;
  std::uint64_t payload = 0;
};

/// Deterministic discrete-event engine (see file comment for ordering).
class SimEngine {
 public:
  explicit SimEngine(SimTime start = SimTime{0.0}) : now_(start) {}

  [[nodiscard]] SimTime now() const { return now_; }
  /// Scheduled events not yet popped (lazy stream ticks are not counted).
  [[nodiscard]] std::size_t pending() const {
    return queue_.size() + run_.size() - run_head_;
  }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Schedule a pre-run event; same-time statics pop in call order, ahead
  /// of every tick and runtime event at that instant.  `when` must not be
  /// in the past.
  void schedule_static(SimTime when, SimEventKind kind,
                       std::uint64_t payload = 0);

  /// Schedule a runtime event (job finish, generated submit); same-time
  /// runtime events pop in call order, after every static and tick at
  /// that instant.  `when` must not be in the past.
  void schedule(SimTime when, SimEventKind kind, std::uint64_t payload = 0);

  /// One event of a run (see `schedule_run`).
  struct RunEvent {
    SimTime time;
    std::uint64_t payload;
  };

  /// Schedule runtime events of one kind: the same as calling `schedule`
  /// for each in turn, so they take one contiguous block of runtime
  /// sequence numbers.  An event no earlier than the last one queued this
  /// way waits in a FIFO beside the heap, so a run sorted by time costs no
  /// heap push or pop, even when it is queued behind an undrained one.
  /// No event may be in the past.
  void schedule_run(SimEventKind kind, std::span<const RunEvent> events);

  /// Arm the lazy workload-hour tick train: kWorkloadHour at `start`,
  /// then every `period`, strictly before `end`.
  void set_workload_stream(SimTime start, Duration period, SimTime end);

  /// Arm the lazy telemetry-sample tick train: kSample at `start`, then
  /// every `period`, strictly before `end`.
  void set_sample_stream(SimTime start, Duration period, SimTime end);

  /// Pop the earliest due event with time <= `until` into `out`,
  /// advancing the clock to it.  Returns false (clock untouched) when
  /// nothing is due in the window.
  [[nodiscard]] bool next(SimTime until, SimEvent& out);

  /// Advance the clock to `t` if it is ahead (end of a drained window).
  void advance_to(SimTime t);

 private:
  // Tie-break bands at equal timestamps (see file comment).
  static constexpr std::uint64_t kBandShift = 56;
  static constexpr std::uint64_t kStaticBand = 0;
  static constexpr std::uint64_t kWorkloadBand = 1;
  static constexpr std::uint64_t kSampleBand = 2;
  static constexpr std::uint64_t kRuntimeBand = 3;

  struct QueuedEvent {
    SimTime time;
    std::uint64_t key;  ///< (band << kBandShift) | counter
    SimEventKind kind;
    std::uint64_t payload;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.time != b.time) return b.time < a.time;
      return b.key < a.key;
    }
  };
  /// A lazy periodic tick train.
  struct Stream {
    bool active = false;
    SimTime next_tick{};
    Duration period{};
    SimTime end{};
  };

  void push(SimTime when, std::uint64_t key, SimEventKind kind,
            std::uint64_t payload);
  [[nodiscard]] std::uint64_t runtime_key() {
    return (kRuntimeBand << kBandShift) | next_runtime_++;
  }

  SimTime now_;
  std::uint64_t next_static_ = 0;
  std::uint64_t next_runtime_ = 0;
  std::uint64_t processed_ = 0;
  Stream workload_;
  Stream sample_;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later> queue_;
  /// Run events in (time, key) order; those before `run_head_` are popped.
  std::vector<QueuedEvent> run_;
  std::size_t run_head_ = 0;
};

}  // namespace hpcem
