#include "serve/front.hpp"

#include <deque>
#include <iostream>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/request_context.hpp"
#include "obs/span.hpp"
#include "obs/stats.hpp"

namespace hpcem::serve {

namespace {

/// Every serve-tier metric in one place, so the front constructor can
/// force registration eagerly — metric ids then exist (value 0) in stats
/// output even before the first request touches an instrumentation site.
struct ServeInstruments {
  obs::Histogram request_ns{"serve.request.ns", "ns"};
  obs::Histogram list_ns{"serve.query.list.ns", "ns"};
  obs::Histogram window_aggregate_ns{"serve.query.window_aggregate.ns", "ns"};
  obs::Histogram regimes_ns{"serve.query.regimes.ns", "ns"};
  obs::Histogram compare_ns{"serve.query.compare.ns", "ns"};
  obs::Histogram whatif_ns{"serve.query.whatif.ns", "ns"};
  obs::Counter cache_hit{"serve.cache.hit"};
  obs::Counter cache_miss{"serve.cache.miss"};
  obs::Counter coalesced{"serve.coalesced"};
  obs::Counter errors{"serve.request.errors"};
  obs::Counter postmortems{"serve.postmortem.dumps"};
  obs::Gauge queue_depth{"serve.queue.depth", "requests"};

  [[nodiscard]] const obs::Histogram& op_ns(QueryRequest::Op op) const {
    switch (op) {
      case QueryRequest::Op::kList: return list_ns;
      case QueryRequest::Op::kWindowAggregate: return window_aggregate_ns;
      case QueryRequest::Op::kRegimes: return regimes_ns;
      case QueryRequest::Op::kCompare: return compare_ns;
      case QueryRequest::Op::kWhatIf: return whatif_ns;
      case QueryRequest::Op::kStats:
      case QueryRequest::Op::kTrace: break;  // admin: answered pre-timer
    }
    return request_ns;
  }
};

ServeInstruments& instruments() {
  static ServeInstruments s;
  return s;
}

/// Error responses start with this exact prefix (render_error emits "ok"
/// first); used to trigger error postmortems without re-parsing.
constexpr std::string_view kErrorPrefix = "{\"ok\":false";

[[nodiscard]] bool is_error_response(const std::string& result) {
  return result.rfind(kErrorPrefix, 0) == 0;
}

}  // namespace

ServeFront::ServeFront(MultiStore stores, ServeOptions options)
    : engine_(std::move(stores)),
      max_queue_(options.max_queue >= 1 ? options.max_queue : 1),
      postmortem_path_(std::move(options.postmortem_path)),
      slow_request_threshold_(options.slow_request_threshold),
      pool_(options.workers >= 1 ? options.workers : 1) {
  if (options.cache_entries > 0) {
    cache_.emplace(options.cache_entries,
                   options.cache_shards >= 1 ? options.cache_shards : 1);
  }
  evaluator_ = [this](const QueryRequest& request) {
    try {
      return render_response(request, engine_.evaluate(request));
    } catch (const Error& e) {
      return render_error(request.id, e.what());
    }
  };
  // Register every serve metric now: a stats snapshot taken before any
  // traffic still lists them (at zero) in their stable name order.
  (void)instruments();
}

ServeFront::~ServeFront() = default;

std::string ServeFront::handle(const std::string& line) {
  // The request id is the running request count: deterministic for a given
  // request sequence, independent of worker count under sequential
  // handling.  Everything below runs inside its span context, so flight
  // records from the cache, store and engine tiers carry this id.
  const std::uint64_t id =
      requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  const obs::RequestScope scope(id);
  HPCEM_OBS_SPAN("serve.request");
  if (!obs::enabled()) return handle_request(line);

  obs::ThreadBuffer& tb = obs::thread_buffer();
  const std::uint64_t begin = obs::next_stamp(tb);
  std::string result = handle_request(line);
  const std::uint64_t elapsed = obs::next_stamp(tb) - begin;
  instruments().request_ns.record(elapsed);
  if (is_error_response(result)) instruments().errors.add();
  maybe_postmortem(result, id, elapsed);
  return result;
}

std::string ServeFront::handle_request(const std::string& line) {
  // Admin commands (stats/trace) are answered from live state and must
  // never be cached or counted as cache traffic, so they are recognized
  // *before* any cache probe.  The substring test is a cheap pre-filter:
  // only lines that could possibly spell an admin op pay the early parse.
  QueryRequest request;
  bool parsed = false;
  if (line.find("\"stats\"") != std::string::npos ||
      line.find("\"trace\"") != std::string::npos) {
    try {
      request = QueryRequest::from_json_text(line);
    } catch (const Error& e) {
      return render_error("", e.what());
    }
    if (request.op == QueryRequest::Op::kStats ||
        request.op == QueryRequest::Op::kTrace) {
      return handle_admin(request);
    }
    parsed = true;  // a real query that merely mentions the word
  }

  // First-level lookup on the verbatim line: repeated identical requests
  // skip the parse and canonicalization entirely.  Safe because
  // canonicalization is idempotent — a raw line that equals some canonical
  // rendering parses to exactly the query that rendering keys.
  if (cache_) {
    if (auto hit = cache_->get(line)) {
      instruments().cache_hit.add();
      return *hit;
    }
  }

  if (!parsed) {
    try {
      request = QueryRequest::from_json_text(line);
    } catch (const Error& e) {
      // Malformed lines never reach the cache: they have no canonical key.
      return render_error("", e.what());
    }
  }
  const obs::ScopedTimer op_timer(instruments().op_ns(request.op));
  const std::string key = request.canonical_key();
  std::string result = evaluate_coalesced(request, key);
  // A different spelling of the query: promote the verbatim line so its
  // repeats take the first-level path.
  if (cache_ && line != key) cache_->put(line, result);
  return result;
}

std::string ServeFront::handle_admin(const QueryRequest& request) const {
  if (request.op == QueryRequest::Op::kTrace) {
    return render_response(request, trace_result(request.trace_request));
  }
  return render_response(request, stats_result());
}

JsonValue ServeFront::stats_result() const {
  const FrontStats s = stats();

  JsonValue cache = JsonValue::object();
  cache.set("hits", s.cache.hits);
  cache.set("misses", s.cache.misses);
  cache.set("insertions", s.cache.insertions);
  cache.set("evictions", s.cache.evictions);
  cache.set("entries", s.cache.entries);

  JsonValue front = JsonValue::object();
  front.set("requests", s.requests);
  front.set("evaluations", s.evaluations);
  front.set("coalesced", s.coalesced);
  front.set("postmortems", s.postmortems);
  front.set("cache", std::move(cache));
  front.set("peak_queue_depth", s.peak_queue_depth);

  const MultiStore& stores = engine_.stores();
  JsonValue store = JsonValue::object();
  store.set("scenarios", stores.scenario_count());
  store.set("series_samples", stores.total_series_samples());
  store.set("shard_count", stores.shard_count());
  JsonValue shards = JsonValue::array();
  for (std::size_t i = 0; i < stores.shard_count(); ++i) {
    const ArtifactStore& s_i = stores.shard(i);
    JsonValue sv = JsonValue::object();
    sv.set("scenarios", s_i.scenario_count());
    sv.set("series_samples", s_i.total_series_samples());
    shards.push_back(std::move(sv));
  }
  store.set("shards", std::move(shards));

  // Obs metrics are process-global; restrict the exposed section to the
  // serve tier so the document does not depend on what else the process
  // instrumented (other subsystems, earlier tests, ...).
  obs::StatsSnapshot snap = obs::StatsRegistry::snapshot();
  const auto foreign = [](const auto& m) {
    return m.name.rfind("serve.", 0) != 0;
  };
  std::erase_if(snap.counters, foreign);
  std::erase_if(snap.gauges, foreign);
  std::erase_if(snap.histograms, foreign);

  JsonValue v = JsonValue::object();
  v.set("front", std::move(front));
  v.set("store", std::move(store));
  v.set("obs", obs::stats_json(snap));
  return v;
}

JsonValue ServeFront::trace_result(std::uint64_t request_id) const {
  const obs::FlightSnapshot snap = obs::flight_snapshot();
  JsonValue records = JsonValue::array();
  bool found = false;
  for (const obs::FlightThreadTrace& thread : snap.threads) {
    for (const obs::FlightRecord& rec : thread.records) {
      if (rec.request != request_id) continue;
      found = true;
      JsonValue r = JsonValue::object();
      r.set("thread", thread.label);
      r.set("name", rec.name);
      r.set("kind",
            rec.kind == obs::FlightKind::kSpan ? "span" : "instant");
      r.set("begin", static_cast<double>(rec.begin));
      r.set("end", static_cast<double>(rec.end));
      records.push_back(std::move(r));
    }
  }
  JsonValue v = JsonValue::object();
  v.set("request", static_cast<double>(request_id));
  v.set("found", found);
  v.set("records", std::move(records));
  return v;
}

void ServeFront::maybe_postmortem(const std::string& result,
                                  std::uint64_t request_id,
                                  std::uint64_t elapsed) {
  if (postmortem_path_.empty()) return;
  const bool error = is_error_response(result);
  const bool slow =
      slow_request_threshold_ != 0 && elapsed >= slow_request_threshold_;
  if (!error && !slow) return;

  // The trigger event lands in the flight ring *before* the snapshot, so
  // the dump itself records why it exists.
  static const obs::NameId kTrigger =
      obs::intern_name("serve.postmortem.trigger");
  obs::record_event(kTrigger, elapsed);
  instruments().postmortems.add();
  postmortems_.fetch_add(1, std::memory_order_relaxed);

  obs::PostmortemTrigger trigger;
  trigger.reason = error ? "query_error" : "latency_threshold";
  trigger.request = request_id;
  trigger.elapsed = elapsed;
  trigger.threshold = slow_request_threshold_;

  const std::lock_guard<std::mutex> lock(postmortem_mu_);
  try {
    obs::write_postmortem_file(trigger, obs::flight_snapshot(),
                               postmortem_path_);
  } catch (const std::exception& e) {
    // A failed dump must not fail the request it describes.
    std::cerr << "serve: postmortem write failed: " << e.what() << "\n";
  }
}

std::string ServeFront::evaluate_coalesced(const QueryRequest& request,
                                           const std::string& key) {
  std::optional<std::string> hit;
  std::shared_ptr<InFlight> entry;
  bool owner = false;
  std::uint64_t owner_request = 0;
  {
    const auto inflight = inflight_.lock();
    // An owner publishes its answer to the cache before it retires its
    // in-flight entry, so under this lock a repeat sees one or the other:
    // cached bytes, or an entry to wait on.
    if (cache_) {
      hit = cache_->get(key);
      if (hit) {
        instruments().cache_hit.add();
      } else {
        instruments().cache_miss.add();
      }
    }
    if (!hit) {
      const auto it = inflight->find(key);
      if (it != inflight->end()) {
        entry = it->second;
        owner_request = entry->owner_request;
      } else {
        entry = std::make_shared<InFlight>();
        entry->owner_request = obs::current_request();
        inflight->emplace(key, entry);
        owner = true;
      }
    }
  }

  if (hit) return *std::move(hit);
  if (!owner) {
    // An identical query is being computed right now: share its answer.
    // The wait event's aux word records whose evaluation this request
    // piggybacked on, linking the two request traces.
    static const obs::NameId kWait = obs::intern_name("serve.coalesce.wait");
    obs::record_event(kWait, owner_request);
    instruments().coalesced.add();
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    auto outcome = entry->outcome.lock();
    outcome.wait(entry->cv, [&] { return outcome->done; });
    return outcome->result;
  }

  evaluations_.fetch_add(1, std::memory_order_relaxed);
  std::string result = evaluator_(request);
  // Publish to the cache before retiring the in-flight entry, so a query
  // arriving in between finds the cached bytes instead of re-evaluating.
  if (cache_) cache_->put(key, result);
  inflight_.lock()->erase(key);
  {
    const auto outcome = entry->outcome.lock();
    outcome->result = result;
    outcome->done = true;
  }
  entry->cv.notify_all();
  return result;
}

std::future<std::string> ServeFront::submit(std::string line) {
  {
    auto backlog = backlog_.lock();
    backlog.wait(backlog_cv_, [&] { return backlog->depth < max_queue_; });
    ++backlog->depth;
    if (backlog->depth > backlog->peak_depth) {
      backlog->peak_depth = backlog->depth;
    }
    instruments().queue_depth.set(backlog->depth);
  }
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  pool_.submit([this, promise, line = std::move(line)]() mutable {
    // handle() maps every domain failure to an error response; anything
    // else (bad_alloc, ...) must still not escape into the pool.
    try {
      promise->set_value(handle(line));
    } catch (const std::exception& e) {
      promise->set_value(render_error("", e.what()));
    }
    --backlog_.lock()->depth;
    backlog_cv_.notify_one();
  });
  return future;
}

std::size_t ServeFront::serve_stream(std::istream& in, std::ostream& out) {
  std::deque<std::future<std::string>> pending;
  std::size_t served = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    pending.push_back(submit(std::move(line)));
    line.clear();
    // Keep the reorder buffer bounded: once it reaches the queue bound the
    // oldest response must be ready (or nearly); write it through.
    while (pending.size() >= max_queue_) {
      out << pending.front().get() << '\n';
      pending.pop_front();
      ++served;
    }
  }
  while (!pending.empty()) {
    out << pending.front().get() << '\n';
    pending.pop_front();
    ++served;
  }
  return served;
}

FrontStats ServeFront::stats() const {
  FrontStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.postmortems = postmortems_.load(std::memory_order_relaxed);
  if (cache_) s.cache = cache_->stats();
  s.peak_queue_depth = backlog_.lock()->peak_depth;
  return s;
}

}  // namespace hpcem::serve
