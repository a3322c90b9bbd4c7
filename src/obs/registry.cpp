#include "obs/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>

#include "util/error.hpp"
#include "util/guarded.hpp"

namespace hpcem::obs {

namespace {

const char* metric_kind_label(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "metric";
}

struct MetricDesc {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string unit;
};

/// Process-wide collection state.  Its lock guards registration, interning
/// and snapshots; per-thread buffers are written lock-free by their owning
/// thread (snapshots require quiescence — see registry.hpp).
struct Registry {
  /// deque: interning must not invalidate name_of() references.
  std::deque<std::string> names;
  std::map<std::string, NameId, std::less<>> name_ids;
  std::deque<MetricDesc> metrics;
  std::map<std::string, MetricId, std::less<>> metric_ids;
  /// Owned here so a worker thread's data outlives the thread.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Guarded<Registry>& registry() {
  static Guarded<Registry> r;
  return r;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_deterministic(bool on) {
  detail::g_deterministic.store(on, std::memory_order_relaxed);
}

void init_from_env() {
  static const bool once = [] {
    if (env_flag("HPCEM_OBS")) set_enabled(true);
    if (env_flag("HPCEM_OBS_DETERMINISTIC")) set_deterministic(true);
    return true;
  }();
  (void)once;
}

NameId intern_name(std::string_view name) {
  const auto r = registry().lock();
  if (const auto it = r->name_ids.find(name); it != r->name_ids.end()) {
    return it->second;
  }
  const auto id = static_cast<NameId>(r->names.size());
  r->names.emplace_back(name);
  r->name_ids.emplace(std::string(name), id);
  return id;
}

const std::string& name_of(NameId id) {
  const auto r = registry().lock();
  HPCEM_ASSERT(id < r->names.size(), "obs::name_of: unknown name id");
  return r->names[id];
}

ThreadBuffer& thread_buffer() {
  thread_local const std::shared_ptr<ThreadBuffer> tls = [] {
    auto buf = std::make_shared<ThreadBuffer>();
    registry().lock()->buffers.push_back(buf);
    return buf;
  }();
  return *tls;
}

void set_thread_label(std::string_view label) {
  thread_buffer().label.assign(label);
}

MetricId register_metric(std::string_view name, MetricKind kind,
                         std::string_view unit) {
  const auto r = registry().lock();
  if (const auto it = r->metric_ids.find(name); it != r->metric_ids.end()) {
    const MetricDesc& d = r->metrics[it->second];
    require(d.kind == kind && d.unit == unit, "obs::register_metric: '", name,
            "' re-registered as a different ", metric_kind_label(kind));
    return it->second;
  }
  const auto id = static_cast<MetricId>(r->metrics.size());
  r->metrics.push_back({std::string(name), kind, std::string(unit)});
  r->metric_ids.emplace(std::string(name), id);
  return id;
}

TraceSnapshot trace_snapshot() {
  const auto r = registry().lock();
  TraceSnapshot snap;
  snap.deterministic = deterministic();
  for (const auto& buf : r->buffers) {
    if (buf->spans.empty()) continue;
    snap.threads.push_back({buf->label, buf->spans});
  }
  // Deterministic thread order: by label, then by the span sequence itself
  // (names resolved to strings — interning order is execution-dependent).
  const auto span_key = [&r](const SpanRecord& s) {
    return std::tuple<const std::string&, std::uint64_t, std::uint64_t>(
        r->names[s.name], s.begin, s.end);
  };
  std::sort(snap.threads.begin(), snap.threads.end(),
            [&](const ThreadTrace& a, const ThreadTrace& b) {
              if (a.label != b.label) return a.label < b.label;
              return std::lexicographical_compare(
                  a.spans.begin(), a.spans.end(), b.spans.begin(),
                  b.spans.end(),
                  [&](const SpanRecord& x, const SpanRecord& y) {
                    return span_key(x) < span_key(y);
                  });
            });
  return snap;
}

FlightSnapshot flight_snapshot() {
  const auto r = registry().lock();
  FlightSnapshot snap;
  snap.deterministic = deterministic();
  for (const auto& buf : r->buffers) {
    const FlightRing& ring = buf->flight;
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    if (head == 0) continue;
    const std::uint64_t first =
        head > kFlightRingSlots ? head - kFlightRingSlots : 0;
    FlightThreadTrace trace;
    trace.label = buf->label;
    trace.records.reserve(static_cast<std::size_t>(head - first));
    for (std::uint64_t seq = first; seq < head; ++seq) {
      const FlightSlot& slot = ring.slots[seq & (kFlightRingSlots - 1)];
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      if (meta == 0) continue;  // overwritten mid-reset; skip
      FlightRecord rec;
      rec.kind = static_cast<FlightKind>((meta & 0xff) - 1);
      rec.name = r->names[static_cast<NameId>(meta >> 8)];
      rec.request = slot.request.load(std::memory_order_relaxed);
      rec.begin = slot.begin.load(std::memory_order_relaxed);
      rec.end = slot.end.load(std::memory_order_relaxed);
      trace.records.push_back(std::move(rec));
    }
    if (trace.records.empty()) continue;
    snap.threads.push_back(std::move(trace));
  }
  // Deterministic thread order: by label, then by the record sequence
  // itself (ties between identically-labelled threads).
  const auto rec_key = [](const FlightRecord& rec) {
    return std::tuple<const std::string&, std::uint64_t, std::uint64_t,
                      std::uint64_t, int>(rec.name, rec.request, rec.begin,
                                          rec.end,
                                          static_cast<int>(rec.kind));
  };
  std::sort(snap.threads.begin(), snap.threads.end(),
            [&](const FlightThreadTrace& a, const FlightThreadTrace& b) {
              if (a.label != b.label) return a.label < b.label;
              return std::lexicographical_compare(
                  a.records.begin(), a.records.end(), b.records.begin(),
                  b.records.end(),
                  [&](const FlightRecord& x, const FlightRecord& y) {
                    return rec_key(x) < rec_key(y);
                  });
            });
  return snap;
}

MetricsSnapshot metrics_snapshot() {
  const auto r = registry().lock();

  // Fold shards per metric id.  Counters and histograms merge by integer
  // addition, gauges by max: all three folds are commutative and
  // associative at the bit level, so the merged values are identical for
  // any shard count or fold order (the campaign guarantee, mirrored).
  const std::size_t n = r->metrics.size();
  std::vector<std::uint64_t> counters(n, 0);
  std::vector<std::uint64_t> gauges(n, 0);
  std::vector<HistogramShard> hists(n);
  for (const auto& buf : r->buffers) {
    for (std::size_t i = 0; i < buf->counters.size(); ++i) {
      counters[i] += buf->counters[i];
    }
    for (std::size_t i = 0; i < buf->gauges.size(); ++i) {
      gauges[i] = std::max(gauges[i], buf->gauges[i]);
    }
    for (std::size_t i = 0; i < buf->histograms.size(); ++i) {
      merge_shard(hists[i], buf->histograms[i]);
    }
  }

  // Name-sorted output: metric_ids is already a sorted map.
  MetricsSnapshot snap;
  for (const auto& [name, id] : r->metric_ids) {
    const MetricDesc& d = r->metrics[id];
    switch (d.kind) {
      case MetricKind::kCounter:
        snap.counters.push_back({name, d.unit, counters[id]});
        break;
      case MetricKind::kGauge:
        snap.gauges.push_back({name, d.unit, gauges[id]});
        break;
      case MetricKind::kHistogram: {
        const HistogramShard& h = hists[id];
        MetricsSnapshot::HistogramValue v;
        v.name = name;
        v.unit = d.unit;
        v.count = h.count;
        v.sum = h.sum;
        v.min = h.count == 0 ? 0 : h.min;
        v.max = h.max;
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          if (h.buckets[b] != 0) {
            v.buckets.emplace_back(static_cast<int>(b), h.buckets[b]);
          }
        }
        snap.histograms.push_back(std::move(v));
        break;
      }
    }
  }
  return snap;
}

void reset_collected() {
  const auto r = registry().lock();
  for (const auto& buf : r->buffers) {
    buf->tick = 0;
    buf->spans.clear();
    buf->counters.clear();
    buf->gauges.clear();
    buf->histograms.clear();
    for (FlightSlot& slot : buf->flight.slots) {
      slot.meta.store(0, std::memory_order_relaxed);
      slot.request.store(0, std::memory_order_relaxed);
      slot.begin.store(0, std::memory_order_relaxed);
      slot.end.store(0, std::memory_order_relaxed);
    }
    buf->flight.head.store(0, std::memory_order_release);
  }
}

}  // namespace hpcem::obs
