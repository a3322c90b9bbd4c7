// Observability registry: collection toggles, name interning and
// per-thread event buffers.
//
// The paper's contribution is *observing* a running facility; this layer
// makes the reproduction observable in the same spirit — without touching
// simulation semantics.  Design constraints, in order:
//
//   1. Near-zero cost when disabled.  Every collection entry point starts
//      with one relaxed atomic load and a predictable branch; nothing else
//      runs.
//   2. No cross-thread synchronisation on the hot path.  Each thread owns a
//      `ThreadBuffer`; spans and metric shards append to it lock-free.  The
//      registry mutex is taken only to register a new thread, intern a new
//      name, or snapshot.
//   3. Deterministic export.  Snapshots merge shards and order output by
//      *names*, never by interning order, registration order or thread
//      identity, so the same collected data always serializes to the same
//      bytes.  Under deterministic mode (see below) timestamps themselves
//      are logical per-thread tick counts, making single-threaded traces
//      byte-stable run to run.
//
// Wall-clock reads are confined to obs/clock.cpp (the one file the
// `no-wall-clock` lint rule exempts): observability must measure real
// elapsed time, but simulation state must never depend on it.
//
// Snapshots and resets require quiescence: no thread may be recording
// concurrently (join workers first — the campaign layer's pool barrier
// already guarantees this).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpcem::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline std::atomic<bool> g_deterministic{false};
/// Monotonic nanoseconds since an arbitrary process-local anchor.
/// Implemented in obs/clock.cpp — the only wall-clock read in the tree.
[[nodiscard]] std::uint64_t wall_now_ns();
}  // namespace detail

/// Monotonic nanoseconds since an arbitrary process-local anchor, for
/// latency measurement in benches and the serving layer's load generator.
/// This is the sanctioned way to time real elapsed work: the actual clock
/// read stays confined to obs/clock.cpp (see file comment).
[[nodiscard]] std::uint64_t monotonic_now_ns();

/// True when collection is on.  The hot-path guard: one relaxed load.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// True when timestamps are logical per-thread ticks instead of wall
/// nanoseconds (byte-stable exports; see file comment).
[[nodiscard]] inline bool deterministic() {
  return detail::g_deterministic.load(std::memory_order_relaxed);
}

void set_enabled(bool on);
void set_deterministic(bool on);

/// Read the environment toggles once: HPCEM_OBS=1 enables collection,
/// HPCEM_OBS_DETERMINISTIC=1 selects logical timestamps.  Called by
/// ObsSession and the tools; idempotent.
void init_from_env();

/// Interned span/metric name.  Ids are process-local and never exported —
/// snapshots always resolve back to strings.
using NameId = std::uint32_t;
[[nodiscard]] NameId intern_name(std::string_view name);
[[nodiscard]] const std::string& name_of(NameId id);

/// One closed span on one thread.  `begin`/`end` are wall nanoseconds, or
/// logical ticks in deterministic mode.
struct SpanRecord {
  NameId name{};
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Merge-exact histogram shard: integer-valued so that merging shards is
/// plain integer addition — commutative and associative at the bit level,
/// which is what makes N-thread merges identical for any worker count.
/// Buckets are log2: bucket index == std::bit_width(value).
struct HistogramShard {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  std::array<std::uint64_t, 65> buckets{};
};

/// Fold `src` into `dst`.  The single definition of the histogram merge,
/// shared by every snapshot path.  An empty shard contributes nothing —
/// in particular its `min` sentinel never leaks into `dst` — so merging
/// {empty, single-sample} is bit-identical in either order (and any
/// bracketing: the fold is commutative and associative).
inline void merge_shard(HistogramShard& dst, const HistogramShard& src) {
  if (src.count == 0) return;
  dst.count += src.count;
  dst.sum += src.sum;
  if (src.min < dst.min) dst.min = src.min;
  if (src.max > dst.max) dst.max = src.max;
  for (std::size_t b = 0; b < src.buckets.size(); ++b) {
    dst.buckets[b] += src.buckets[b];
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: a bounded per-thread ring of recent span/event records.
// ---------------------------------------------------------------------------
// The postmortem substrate: each thread keeps the last kFlightRingSlots
// records it produced, overwriting the oldest.  Appends are lock-free
// (relaxed stores into the owning thread's ring); a snapshot may run
// concurrently with serving, in which case a slot being overwritten at
// that instant can read torn — acceptable for a best-effort crash dump,
// and exact under quiescence (which is what the deterministic tests use).

inline constexpr std::size_t kFlightRingSlots = 1024;  // power of two

enum class FlightKind : std::uint8_t { kSpan = 0, kInstant = 1 };

/// One ring slot.  All fields are relaxed atomics so a concurrent snapshot
/// read is a data-race-free (if possibly torn) observation, not UB.
/// `meta` packs (name << 8 | kind + 1); zero means never written.
struct FlightSlot {
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> request{0};
  std::atomic<std::uint64_t> begin{0};
  /// Span close stamp, or the auxiliary word of an instant event.
  std::atomic<std::uint64_t> end{0};
};

/// Per-thread flight ring.  `head` is the next sequence number; slot
/// `seq & (kFlightRingSlots - 1)` holds record `seq`.
struct FlightRing {
  std::array<FlightSlot, kFlightRingSlots> slots;
  std::atomic<std::uint64_t> head{0};
};

/// Per-thread collection buffer.  Owned by the registry (it outlives the
/// thread so campaign workers' data survives the pool teardown); the
/// owning thread appends without locks.
struct ThreadBuffer {
  std::string label = "thread";
  /// Logical clock for deterministic mode; each stamp is ++tick.
  std::uint64_t tick = 0;
  std::vector<SpanRecord> spans;
  /// Metric shards, indexed by MetricId (grown on first touch).
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> gauges;
  std::vector<HistogramShard> histograms;
  /// Recent span/event records for the postmortem flight recorder.
  FlightRing flight;
};

/// Append one record to this thread's flight ring (owning thread only).
inline void flight_append(ThreadBuffer& tb, FlightKind kind, NameId name,
                          std::uint64_t request, std::uint64_t begin,
                          std::uint64_t end) {
  FlightRing& ring = tb.flight;
  const std::uint64_t seq = ring.head.load(std::memory_order_relaxed);
  FlightSlot& slot = ring.slots[seq & (kFlightRingSlots - 1)];
  slot.meta.store((std::uint64_t{name} << 8) |
                      (static_cast<std::uint64_t>(kind) + 1),
                  std::memory_order_relaxed);
  slot.request.store(request, std::memory_order_relaxed);
  slot.begin.store(begin, std::memory_order_relaxed);
  slot.end.store(end, std::memory_order_relaxed);
  // Publish after the fields: a snapshot that sees `seq + 1` sees the
  // stores above (or a later overwrite of the same slot — torn, tolerated).
  ring.head.store(seq + 1, std::memory_order_release);
}

/// This thread's buffer, created and registered on first use.
[[nodiscard]] ThreadBuffer& thread_buffer();

/// Label this thread's buffer for trace export ("main", "campaign-worker").
void set_thread_label(std::string_view label);

/// Next timestamp on this thread: a logical tick in deterministic mode,
/// wall nanoseconds otherwise.
[[nodiscard]] inline std::uint64_t next_stamp(ThreadBuffer& tb) {
  return deterministic() ? ++tb.tick : detail::wall_now_ns();
}

/// Metric descriptor registration.  Re-registering the same name returns
/// the existing id (the kind and unit must match).
enum class MetricKind { kCounter, kGauge, kHistogram };
using MetricId = std::uint32_t;
[[nodiscard]] MetricId register_metric(std::string_view name, MetricKind kind,
                                       std::string_view unit);

/// All spans of one thread, in record (i.e. span-close) order.
struct ThreadTrace {
  std::string label;
  std::vector<SpanRecord> spans;
};

/// Every thread's spans.  Threads are ordered deterministically by
/// (label, span sequence), never by registration order.
struct TraceSnapshot {
  bool deterministic = false;
  std::vector<ThreadTrace> threads;
};

[[nodiscard]] TraceSnapshot trace_snapshot();

/// One resolved flight-recorder record (names back to strings; `end` is
/// the auxiliary word for instants).
struct FlightRecord {
  std::string name;
  FlightKind kind = FlightKind::kSpan;
  std::uint64_t request = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// The surviving ring contents of one thread, oldest record first.
struct FlightThreadTrace {
  std::string label;
  std::vector<FlightRecord> records;
};

/// Every thread's recent records.  Threads are ordered deterministically
/// by (label, record sequence), mirroring trace_snapshot().
struct FlightSnapshot {
  bool deterministic = false;
  std::vector<FlightThreadTrace> threads;
};

[[nodiscard]] FlightSnapshot flight_snapshot();

/// Merged metric values, each list sorted by metric name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::string unit;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::string unit;
    std::uint64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::string unit;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /// (bucket bit-width, count) pairs, non-empty buckets only.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// Merge every thread shard (integer folds: worker-count invariant).
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Drop collected spans and zero metric shards.  Interned names and metric
/// descriptors persist (statics in instrumented code keep their ids).
void reset_collected();

}  // namespace hpcem::obs
