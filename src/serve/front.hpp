// Serving front: cache, request coalescing and a bounded executor over a
// QueryEngine (see DESIGN.md "Serving layer").
//
// The path of one request line:
//
//   cache get (verbatim line) ──hit───────────────────────────────▶ bytes
//     │ miss
//   parse -> canonical key -> cache get ──hit──────────────────────▶ bytes
//                                │ miss
//                                ├─ identical query in flight? ─wait▶ bytes
//                                └─ evaluate -> cache put -> notify ▶ bytes
//
// The cache is keyed twice: on the canonical request JSON (two spellings
// of one query share one evaluation) and on the verbatim line (repeats of
// the same bytes skip the parse entirely — safe because canonicalization
// is idempotent, so a raw line equal to some canonical rendering parses
// to exactly the query that rendering keys).
//
// Coalescing means N concurrent identical queries cost one evaluation:
// the first arrival computes, later arrivals block on the in-flight entry
// and copy its bytes.  The executor is a bounded thread pool — `submit`
// applies backpressure by blocking once `max_queue` requests are pending,
// so a fast client cannot queue unbounded memory.
//
// Determinism: every response is a pure function of (store, request line)
// rendered through the deterministic JSON layer, the stream writer emits
// responses in input order, and the cache stores exact response bytes —
// so a request stream produces byte-identical output for any worker
// count, with the cache on or off.
//
// Observability (hpcem::obs, off unless HPCEM_OBS=1): `serve.request`
// span + latency histogram around every evaluation, `serve.cache.hit` /
// `serve.cache.miss` counters, `serve.coalesced` counter and a
// `serve.queue.depth` high-water gauge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "util/guarded.hpp"
#include "util/thread_pool.hpp"

namespace hpcem::serve {

/// Front configuration.
struct ServeOptions {
  std::size_t workers = 4;        ///< executor threads (>= 1)
  std::size_t cache_entries = 4096;  ///< 0 disables the result cache
  std::size_t cache_shards = 8;
  std::size_t max_queue = 256;    ///< submit() blocks beyond this depth
  /// Flight-recorder postmortem JSON path; empty disables dumping.
  /// Dumps fire on a query error, or on a latency breach when
  /// `slow_request_threshold` is set.  Needs obs collection enabled.
  std::string postmortem_path;
  /// Latency postmortem threshold in the active stamp unit (wall
  /// nanoseconds, or logical ticks in deterministic mode); 0 = off.
  std::uint64_t slow_request_threshold = 0;
};

/// Cumulative front statistics.
struct FrontStats {
  std::uint64_t requests = 0;
  std::uint64_t evaluations = 0;  ///< actual engine evaluations (misses)
  std::uint64_t coalesced = 0;    ///< waits on an identical in-flight query
  std::uint64_t postmortems = 0;  ///< flight-recorder dumps triggered
  CacheStats cache;
  std::size_t peak_queue_depth = 0;
};

/// Thread-safe query service over frozen ArtifactStores routed through a
/// MultiStore.
class ServeFront {
 public:
  /// Routes every lookup through the MultiStore's consistent-hash ring.
  /// Responses are byte-identical for any shard count holding the same
  /// scenarios.
  ServeFront(MultiStore stores, ServeOptions options);
  ~ServeFront();
  ServeFront(const ServeFront&) = delete;
  ServeFront& operator=(const ServeFront&) = delete;

  /// Answer one NDJSON request line synchronously (parse -> cache ->
  /// coalesce -> evaluate).  Never throws: failures become deterministic
  /// `{"ok":false,...}` lines.  Safe to call from any thread.  Assigns
  /// the line a deterministic request id (the running request count) and
  /// serves it under that request-scoped span context; `stats` / `trace`
  /// admin commands are answered here and never cached.
  [[nodiscard]] std::string handle(const std::string& line);

  /// Enqueue a request line on the executor.  Blocks while the queue is
  /// at `max_queue` (backpressure).  The future never holds an exception.
  [[nodiscard]] std::future<std::string> submit(std::string line);

  /// Serve a whole NDJSON stream: one response line per request line, in
  /// input order, fanned out over the executor.  Returns lines served.
  std::size_t serve_stream(std::istream& in, std::ostream& out);

  [[nodiscard]] FrontStats stats() const;
  [[nodiscard]] const QueryEngine& engine() const { return engine_; }

 private:
  /// Evaluation seam: tests substitute a slow/counting evaluator to pin
  /// down coalescing without depending on engine timings.
  friend class ServeFrontTestAccess;
  using Evaluator = std::function<std::string(const QueryRequest&)>;

  /// The request path proper (cache -> coalesce -> evaluate), run inside
  /// the request-scoped span context handle() installs.
  [[nodiscard]] std::string handle_request(const std::string& line);
  /// Answer a stats/trace admin command from live front + obs state.
  [[nodiscard]] std::string handle_admin(const QueryRequest& request) const;
  [[nodiscard]] JsonValue stats_result() const;
  [[nodiscard]] JsonValue trace_result(std::uint64_t request_id) const;
  /// Dump a flight-recorder postmortem when `result` is an error response
  /// or `elapsed` breaches the configured latency threshold.
  void maybe_postmortem(const std::string& result, std::uint64_t request_id,
                        std::uint64_t elapsed);

  /// Canonical-key cache probe, then coalesce or evaluate.  The probe
  /// runs under the in-flight map's lock, so a request cannot miss the
  /// cache, then miss the in-flight entry its owner retired meanwhile, and
  /// evaluate a second time.
  [[nodiscard]] std::string evaluate_coalesced(const QueryRequest& request,
                                               const std::string& key);

  /// One query being computed right now; later identical arrivals wait.
  struct InFlight {
    /// Id of the request that owns the evaluation; set before the entry
    /// is published in the in-flight map, so waiters can record whose
    /// answer they piggybacked on.
    std::uint64_t owner_request = 0;
    struct Outcome {
      bool done = false;
      std::string result;
    };
    Guarded<Outcome> outcome;
    std::condition_variable cv;  ///< signals waiters: outcome is done
  };

  /// Requests submitted to the executor and not yet answered.
  struct Backlog {
    std::size_t depth = 0;
    std::size_t peak_depth = 0;
  };

  QueryEngine engine_;
  Evaluator evaluator_;
  std::optional<ResultCache> cache_;

  Guarded<std::map<std::string, std::shared_ptr<InFlight>>> inflight_;

  Guarded<Backlog> backlog_;
  std::condition_variable backlog_cv_;  ///< signals submitters: room freed
  std::size_t max_queue_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> postmortems_{0};

  std::string postmortem_path_;
  std::uint64_t slow_request_threshold_ = 0;
  /// Serializes postmortem dumps (snapshot + file write).
  std::mutex postmortem_mu_;

  // Last member: destroyed first, so worker tasks still running at
  // teardown see every other member alive.
  ThreadPool pool_;
};

}  // namespace hpcem::serve
