// The serve-tier telemetry plane: the stats/trace NDJSON admin commands,
// postmortem triggers, and the determinism guarantees around them — stats
// and trace documents are byte-identical for any configured worker count
// in deterministic mode, and response bytes stay identical with obs on.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "serve/front.hpp"
#include "telemetry/timeseries.hpp"

namespace hpcem::serve {

/// Test seam: swap the front's evaluator so coalescing can be pinned down
/// without depending on real engine timings.
class ServeFrontTestAccess {
 public:
  static void set_evaluator(ServeFront& front, ServeFront::Evaluator e) {
    front.evaluator_ = std::move(e);
  }
};

namespace {

/// A one-shard MultiStore over a single-scenario store.
MultiStore stats_store() {
  RunArtifact a;
  a.scenario = "s";
  a.source = "simulation";
  TimeSeries series("kW");
  for (int i = 0; i <= 240; ++i) {
    series.append(SimTime(i * 3600.0),
                  3000.0 + 200.0 * ((i % 24) >= 8 && (i % 24) < 18));
  }
  a.window_start = series.start_time();
  a.window_end = series.end_time();
  a.headline.mean_kw = PowerKw{series.summary().mean};
  a.headline.window_energy_kwh = EnergyKwh{series.integrate() / 3600.0};
  a.headline.completed_jobs = 5000.0;
  a.channels.push_back(
      aggregate_channel("cabinet_kw", series, /*include_series=*/true));
  auto store = std::make_shared<ArtifactStore>();
  store->add(a);
  MultiStore stores;
  stores.adopt(std::move(store));
  return stores;
}

/// Obs collection on, deterministic stamps, clean shards per test.
class ServeStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_collected();
    obs::set_enabled(true);
    obs::set_deterministic(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_deterministic(false);
    obs::reset_collected();
  }
};

/// The scripted request sequence every determinism test replays: queries,
/// repeats and a respelling (cache hits), a domain error and a parse
/// error.
std::vector<std::string> scripted_sequence() {
  return {
      R"({"op":"list"})",
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw"})",
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw"})",
      R"({"channel":"cabinet_kw","op":"window_aggregate","scenario":"s"})",
      R"({"op":"whatif","scenario":"s","channel":"cabinet_kw",)"
      R"("intensity":{"constant_g_per_kwh":80}})",
      R"({"op":"compare","a":"s","b":"missing"})",
      R"(}{ not json)",
      R"({"op":"list"})",
  };
}

/// Replay the script on a fresh front (fresh obs shards) and return the
/// final stats + trace response bytes.
std::string stats_and_trace_bytes(std::size_t workers) {
  obs::reset_collected();
  const MultiStore store = stats_store();
  ServeOptions options;
  options.workers = workers;
  ServeFront front(store, options);
  for (const std::string& line : scripted_sequence()) {
    (void)front.handle(line);
  }
  return front.handle(R"({"op":"stats"})") + "\n" +
         front.handle(R"({"op":"trace","request":2})");
}

TEST_F(ServeStatsTest, StatsAndTraceAreByteStableAcrossRuns) {
  const std::string first = stats_and_trace_bytes(1);
  // The golden property: replaying the same script from clean state
  // reproduces the documents byte for byte.
  EXPECT_EQ(stats_and_trace_bytes(1), first);
}

TEST_F(ServeStatsTest, StatsAndTraceAreWorkerCountInvariant) {
  const std::string one = stats_and_trace_bytes(1);
  EXPECT_EQ(stats_and_trace_bytes(4), one);
  EXPECT_EQ(stats_and_trace_bytes(16), one);
}

TEST_F(ServeStatsTest, StatsCountersReflectTheScriptedTraffic) {
  const MultiStore store = stats_store();
  ServeFront front(store, ServeOptions{});
  for (const std::string& line : scripted_sequence()) {
    (void)front.handle(line);
  }
  const std::string response = front.handle(R"({"op":"stats"})");
  const JsonValue doc = JsonValue::parse(response);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("op").as_string(), "stats");

  const JsonValue& f = doc.at("result").at("front");
  // 8 scripted lines + this stats request.
  EXPECT_EQ(f.at("requests").as_number(), 9.0);
  // Line 3 repeats line 2 verbatim; line 4 respells it; line 8 repeats
  // line 1.
  EXPECT_GE(f.at("cache").at("hits").as_number(), 3.0);
  EXPECT_GE(f.at("evaluations").as_number(), 4.0);

  const JsonValue& obs_doc = doc.at("result").at("obs");
  EXPECT_EQ(obs_doc.at("schema").as_string(), "hpcem.obs_stats");
  bool saw_hit_counter = false;
  bool saw_error_counter = false;
  for (const JsonValue& c : obs_doc.at("counters").as_array()) {
    const std::string& name = c.at("name").as_string();
    if (name == "serve.cache.hit") {
      saw_hit_counter = true;
      EXPECT_GE(c.at("value").as_number(), 3.0);
    }
    if (name == "serve.request.errors") {
      saw_error_counter = true;
      // The compare against a missing scenario and the parse error.
      EXPECT_EQ(c.at("value").as_number(), 2.0);
    }
    // The admin filter: only serve-tier metrics are exposed.
    EXPECT_EQ(name.rfind("serve.", 0), 0u);
  }
  EXPECT_TRUE(saw_hit_counter);
  EXPECT_TRUE(saw_error_counter);

  bool saw_request_hist = false;
  for (const JsonValue& h : obs_doc.at("histograms").as_array()) {
    if (h.at("name").as_string() == "serve.request.ns") {
      saw_request_hist = true;
      EXPECT_EQ(h.at("count").as_number(), 8.0);
      EXPECT_GT(h.at("p50").as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_request_hist);
}

TEST_F(ServeStatsTest, AdminCommandsAreNeverCached) {
  const MultiStore store = stats_store();
  ServeFront front(store, ServeOptions{});
  const std::string first = front.handle(R"({"op":"stats"})");
  const std::string second = front.handle(R"({"op":"stats"})");
  // A cached answer would repeat the first request count.
  EXPECT_NE(first, second);
  const FrontStats s = front.stats();
  EXPECT_EQ(s.cache.hits, 0u);
  EXPECT_EQ(s.cache.misses, 0u);
  EXPECT_EQ(s.cache.insertions, 0u);
  EXPECT_EQ(s.evaluations, 0u);
}

TEST_F(ServeStatsTest, QueriesMentioningAdminWordsAreStillCached) {
  const MultiStore store = stats_store();
  ServeFront front(store, ServeOptions{});
  // The id merely contains the word "stats": a real query, cached
  // normally.
  const std::string line = R"({"op":"list","id":"stats"})";
  const std::string first = front.handle(line);
  EXPECT_EQ(front.handle(line), first);
  const FrontStats s = front.stats();
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
}

TEST_F(ServeStatsTest, TraceRetrievesOneRequestsRecords) {
  // One stream over all five query ops plus a verbatim repeat, on one
  // worker so request ids follow line order.  Every contractual serve
  // instrument name must show up: each request's trace holds its
  // serve.request span and its op's serve.query.* span, and the stats
  // document carries the cache counters and the queue-depth gauge.
  const MultiStore store = stats_store();
  ServeOptions options;
  options.workers = 1;
  ServeFront front(store, options);
  const std::vector<std::pair<std::string, std::string>> stream = {
      {R"({"op":"list"})", "list"},
      {R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw"})",
       "window_aggregate"},
      {R"({"op":"regimes","scenario":"s","start":0,"end":86400,)"
       R"("intensity":{"constant_g_per_kwh":80}})",
       "regimes"},
      {R"({"op":"compare","a":"s","b":"s"})", "compare"},
      {R"({"op":"whatif","scenario":"s","channel":"cabinet_kw",)"
       R"("intensity":{"constant_g_per_kwh":80}})",
       "whatif"},
  };
  std::string lines;
  for (const auto& [line, op] : stream) lines += line + "\n";
  lines += stream[0].first + "\n";  // verbatim repeat: a cache hit
  std::istringstream in(lines);
  std::ostringstream out;
  ASSERT_EQ(front.serve_stream(in, out), stream.size() + 1);
  EXPECT_EQ(out.str().find(R"("ok":false)"), std::string::npos) << out.str();

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string id = std::to_string(i + 1);
    const JsonValue doc = JsonValue::parse(
        front.handle(R"({"op":"trace","request":)" + id + "}"));
    EXPECT_TRUE(doc.at("ok").as_bool());
    const JsonValue& result = doc.at("result");
    EXPECT_EQ(result.at("request").as_number(), static_cast<double>(i + 1));
    EXPECT_TRUE(result.at("found").as_bool());
    bool saw_request_span = false;
    bool saw_handler_span = false;
    bool saw_store_lookup = false;
    for (const JsonValue& r : result.at("records").as_array()) {
      const std::string& name = r.at("name").as_string();
      const bool span = r.at("kind").as_string() == "span";
      if (name == "serve.request" && span) saw_request_span = true;
      if (name == "serve.query." + stream[i].second && span) {
        saw_handler_span = true;
      }
      if (name == "serve.store.at") saw_store_lookup = true;
    }
    EXPECT_TRUE(saw_request_span) << "request " << id;
    EXPECT_TRUE(saw_handler_span) << "request " << id;
    if (stream[i].second == "window_aggregate") {
      EXPECT_TRUE(saw_store_lookup);
    }
  }

  const JsonValue missing =
      JsonValue::parse(front.handle(R"({"op":"trace","request":999})"));
  EXPECT_FALSE(missing.at("result").at("found").as_bool());
  EXPECT_TRUE(missing.at("result").at("records").as_array().empty());

  const JsonValue stats = JsonValue::parse(front.handle(R"({"op":"stats"})"));
  const JsonValue& obs_doc = stats.at("result").at("obs");
  std::map<std::string, double> counters;
  for (const JsonValue& c : obs_doc.at("counters").as_array()) {
    counters[c.at("name").as_string()] = c.at("value").as_number();
  }
  EXPECT_EQ(counters["serve.cache.hit"], 1.0);
  EXPECT_EQ(counters["serve.cache.miss"], 5.0);
  bool saw_queue_gauge = false;
  for (const JsonValue& g : obs_doc.at("gauges").as_array()) {
    if (g.at("name").as_string() != "serve.queue.depth") continue;
    saw_queue_gauge = true;
    EXPECT_GE(g.at("value").as_number(), 1.0);
  }
  EXPECT_TRUE(saw_queue_gauge);
}

TEST_F(ServeStatsTest, MalformedTraceRequestsAreParseErrors) {
  const MultiStore store = stats_store();
  ServeFront front(store, ServeOptions{});
  const std::string response =
      front.handle(R"({"op":"trace","request":0.5})");
  EXPECT_EQ(response.rfind(R"({"ok":false)", 0), 0u);
}

TEST_F(ServeStatsTest, QueryErrorTriggersPostmortem) {
  const MultiStore store = stats_store();
  ServeOptions options;
  options.postmortem_path =
      testing::TempDir() + "hpcem_serve_stats_pm_error.json";
  ServeFront front(store, options);
  (void)front.handle(R"({"op":"list"})");
  EXPECT_EQ(front.stats().postmortems, 0u);  // success: no dump
  (void)front.handle(R"({"op":"compare","a":"s","b":"missing"})");
  EXPECT_EQ(front.stats().postmortems, 1u);

  std::ifstream in(options.postmortem_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "hpcem.postmortem");
  EXPECT_EQ(doc.at("trigger").at("reason").as_string(), "query_error");
  EXPECT_EQ(doc.at("trigger").at("request").as_number(), 2.0);
  EXPECT_FALSE(doc.at("threads").as_array().empty());
}

TEST_F(ServeStatsTest, LatencyBreachTriggersPostmortem) {
  const MultiStore store = stats_store();
  ServeOptions options;
  options.postmortem_path =
      testing::TempDir() + "hpcem_serve_stats_pm_slow.json";
  // Deterministic stamps tick once per clock read, so every request
  // "lasts" at least one tick: threshold 1 breaches on the first request.
  options.slow_request_threshold = 1;
  ServeFront front(store, options);
  (void)front.handle(R"({"op":"list"})");
  EXPECT_EQ(front.stats().postmortems, 1u);

  std::ifstream in(options.postmortem_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("trigger").at("reason").as_string(),
            "latency_threshold");
  EXPECT_EQ(doc.at("trigger").at("threshold").as_number(), 1.0);
}

TEST_F(ServeStatsTest, StatsDocumentCountsPostmortems) {
  const MultiStore store = stats_store();
  ServeOptions options;
  options.postmortem_path =
      testing::TempDir() + "hpcem_serve_stats_pm_count.json";
  ServeFront front(store, options);
  (void)front.handle(R"(}{ parse error)");
  const JsonValue doc =
      JsonValue::parse(front.handle(R"({"op":"stats"})"));
  EXPECT_EQ(doc.at("result").at("front").at("postmortems").as_number(),
            1.0);
}

// Concurrency coverage (TEST(ServeFront, ...) so the CI TSan filter picks
// these up): response bytes with obs on, and the flight ring + coalesce
// events under real parallelism.

TEST(ServeFront, StreamBytesAreWorkerCountInvariantWithObsOn) {
  obs::reset_collected();
  obs::set_enabled(true);
  {
    const MultiStore store = stats_store();
    std::string stream;
    for (int pass = 0; pass < 3; ++pass) {
      for (const std::string& line : scripted_sequence()) {
        stream += line + "\n";
      }
    }
    std::string golden;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
      ServeOptions options;
      options.workers = workers;
      ServeFront front(store, options);
      std::istringstream in(stream);
      std::ostringstream out;
      (void)front.serve_stream(in, out);
      if (golden.empty()) {
        golden = out.str();
      } else {
        EXPECT_EQ(out.str(), golden);
      }
    }
  }
  obs::set_enabled(false);
  obs::reset_collected();
}

TEST(ServeFront, CoalescedWaitersRecordTheOwnersRequestId) {
  obs::reset_collected();
  obs::set_enabled(true);
  obs::set_deterministic(true);
  {
    constexpr std::size_t kClients = 4;
    const MultiStore store = stats_store();
    ServeOptions options;
    options.cache_entries = 0;  // force every arrival into coalescing
    ServeFront front(store, options);

    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    ServeFrontTestAccess::set_evaluator(
        front, [&](const QueryRequest& request) {
          // Hold the evaluation open until every other client has arrived
          // and is blocked on the in-flight entry.
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
          return render_response(request, JsonValue::object());
        });

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    const std::string line = R"({"op":"list"})";
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] { (void)front.handle(line); });
    }
    // The waiters increment the coalesced counter before blocking on the
    // in-flight entry, so this poll observes all of them arriving.
    while (front.stats().coalesced < kClients - 1) {
      std::this_thread::yield();
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    for (auto& t : clients) t.join();

    const FrontStats s = front.stats();
    EXPECT_EQ(s.requests, kClients);
    EXPECT_EQ(s.evaluations, 1u);
    EXPECT_EQ(s.coalesced, kClients - 1);

    // Every waiter logged a serve.coalesce.wait instant whose aux word is
    // the owning request's id.
    const obs::FlightSnapshot snap = obs::flight_snapshot();
    std::size_t waits = 0;
    std::uint64_t owner = 0;
    for (const obs::FlightThreadTrace& thread : snap.threads) {
      for (const obs::FlightRecord& rec : thread.records) {
        if (rec.name != "serve.coalesce.wait") continue;
        ++waits;
        if (owner == 0) owner = rec.end;
        EXPECT_EQ(rec.end, owner);  // all piggybacked on the same owner
        EXPECT_NE(rec.request, rec.end);  // a waiter is not the owner
      }
    }
    EXPECT_EQ(waits, kClients - 1);
    EXPECT_GE(owner, 1u);
    EXPECT_LE(owner, static_cast<std::uint64_t>(kClients));
  }
  obs::set_enabled(false);
  obs::set_deterministic(false);
  obs::reset_collected();
}

}  // namespace
}  // namespace hpcem::serve
