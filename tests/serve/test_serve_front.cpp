// ServeFront: caching, request coalescing under concurrency, backpressure
// and byte-determinism across worker counts.  The coalescing tests run
// under TSan in CI.
#include "serve/front.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

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
MultiStore small_store() {
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
  a.headline.mean_kw = series.summary().mean;
  a.headline.window_energy_kwh = series.integrate() / 3600.0;
  a.headline.completed_jobs = 5000.0;
  a.channels.push_back(
      aggregate_channel("cabinet_kw", series, /*include_series=*/true));
  auto store = std::make_shared<ArtifactStore>();
  store->add(a);
  MultiStore stores;
  stores.adopt(std::move(store));
  return stores;
}

std::vector<std::string> request_mix() {
  return {
      R"({"op":"list"})",
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw"})",
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw",)"
      R"("start":86400,"end":432000})",
      R"({"op":"regimes","scenario":"s",)"
      R"("intensity":{"points":[[0,10],[864000,150]]}})",
      R"({"op":"whatif","scenario":"s","channel":"cabinet_kw",)"
      R"("intensity":{"constant_g_per_kwh":80}})",
      R"({"op":"compare","a":"s","b":"missing"})",  // deterministic error
      R"(}{ not json)",                             // parse error
      R"({"op":"list","id":"tagged"})",
  };
}

TEST(ServeFront, CacheCollapsesRepeatsToOneEvaluation) {
  const MultiStore store = small_store();
  ServeFront front(store, ServeOptions{});
  const std::string line =
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw"})";
  const std::string first = front.handle(line);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(front.handle(line), first);

  const FrontStats s = front.stats();
  EXPECT_EQ(s.requests, 10u);
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.cache.hits, 9u);
}

TEST(ServeFront, CanonicalKeyUnifiesSpellingsInTheCache) {
  const MultiStore store = small_store();
  ServeFront front(store, ServeOptions{});
  const std::string spelling_a =
      R"({"op":"window_aggregate","scenario":"s","channel":"cabinet_kw",)"
      R"("start":86400,"end":172800})";
  const std::string spelling_b =
      R"({"channel":"cabinet_kw","end":"1970-01-03","op":)"
      R"("window_aggregate","scenario":"s","start":"1970-01-02"})";
  EXPECT_EQ(front.handle(spelling_a), front.handle(spelling_b));
  EXPECT_EQ(front.stats().evaluations, 1u);
  EXPECT_EQ(front.stats().cache.hits, 1u);
}

TEST(ServeFront, MalformedLinesAreNotCached) {
  const MultiStore store = small_store();
  ServeFront front(store, ServeOptions{});
  const std::string bad = "{ nope";
  const std::string first = front.handle(bad);
  EXPECT_EQ(front.handle(bad), first);  // still deterministic
  EXPECT_EQ(front.stats().cache.insertions, 0u);
  EXPECT_EQ(front.stats().evaluations, 0u);
}

// N concurrent identical requests must cost exactly one evaluation: the
// evaluator blocks until every other thread is waiting on the in-flight
// entry, so the test is deterministic, not timing-dependent.
TEST(ServeFront, CoalescesConcurrentIdenticalQueries) {
  constexpr std::size_t kClients = 6;
  const MultiStore store = small_store();
  ServeOptions options;
  options.cache_entries = 0;  // isolate coalescing from the cache
  ServeFront front(store, options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> evaluations{0};
  ServeFrontTestAccess::set_evaluator(
      front, [&](const QueryRequest& request) {
        evaluations.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        return render_response(request, JsonValue("pinned"));
      });

  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&front, &responses, c] {
      responses[c] = front.handle(R"({"op":"list"})");
    });
  }
  // Wait until all non-owners are registered as coalesced waiters, then
  // let the single owner evaluation finish.
  while (front.stats().coalesced <
         static_cast<std::uint64_t>(kClients - 1)) {
    std::this_thread::yield();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : clients) t.join();

  EXPECT_EQ(evaluations.load(), 1);
  for (const auto& r : responses) EXPECT_EQ(r, responses[0]);
  const FrontStats s = front.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeFront, SubmitAppliesBackpressureAndKeepsOrder) {
  const MultiStore store = small_store();
  ServeOptions options;
  options.workers = 2;
  options.max_queue = 4;  // far fewer than the requests below
  ServeFront front(store, options);

  const auto mix = request_mix();
  std::vector<std::future<std::string>> futures;
  futures.reserve(100);
  for (std::size_t i = 0; i < 100; ++i) {
    futures.push_back(front.submit(mix[i % mix.size()]));
  }
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), front.handle(mix[i % mix.size()]));
  }
  EXPECT_LE(front.stats().peak_queue_depth, 4u);
}

// The tentpole invariant: one request stream, byte-identical response
// stream for any worker count, cache on or off.
TEST(ServeFront, StreamsAreByteIdenticalAcrossWorkerCounts) {
  const MultiStore store = small_store();
  std::string input;
  const auto mix = request_mix();
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& line : mix) input += line + "\n";
  }

  const auto run = [&](std::size_t workers, std::size_t cache_entries) {
    ServeOptions options;
    options.workers = workers;
    options.cache_entries = cache_entries;
    ServeFront front(store, options);
    std::istringstream in(input);
    std::ostringstream out;
    const std::size_t served = front.serve_stream(in, out);
    EXPECT_EQ(served, mix.size() * 4);
    return out.str();
  };

  const std::string reference = run(1, 4096);
  EXPECT_EQ(run(4, 4096), reference);
  EXPECT_EQ(run(16, 4096), reference);
  EXPECT_EQ(run(4, 0), reference);   // cache off
  EXPECT_EQ(run(16, 1), reference);  // pathologically small cache
  // One response line per request line.
  std::size_t lines = 0;
  for (const char ch : reference) lines += ch == '\n';
  EXPECT_EQ(lines, mix.size() * 4);
}

TEST(ServeFront, StatsExposeCacheAndQueueCounters) {
  const MultiStore store = small_store();
  ServeOptions options;
  options.workers = 4;
  ServeFront front(store, options);
  std::string input;
  const auto mix = request_mix();
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& line : mix) input += line + "\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  (void)front.serve_stream(in, out);

  const FrontStats s = front.stats();
  EXPECT_EQ(s.requests, mix.size() * 3);
  // Each of the 7 cacheable lines is evaluated exactly once; with 4
  // workers a repeat either hits the cache or waits on the in-flight
  // first evaluation.  The malformed line never reaches either.
  EXPECT_EQ(s.evaluations, mix.size() - 1);
  EXPECT_EQ(s.cache.hits + s.coalesced, (mix.size() - 1) * 2);
  EXPECT_GE(s.peak_queue_depth, 1u);
}

}  // namespace
}  // namespace hpcem::serve
