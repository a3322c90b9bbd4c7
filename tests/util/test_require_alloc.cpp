// `require` / `require_state` cost one branch when the check passes: no
// message is built and nothing is allocated.  This binary replaces the
// global allocation functions with counting ones to prove it, and checks
// that a failing call still throws the exact text the old eagerly
// concatenated messages had, at every site that used to concatenate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/run_artifact.hpp"
#include "sched/allocator.hpp"
#include "sched/partition.hpp"
#include "sched/scheduler.hpp"
#include "serve/artifact_store.hpp"
#include "serve/multi_store.hpp"
#include "serve/query.hpp"
#include "sim/facility_sim.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/timeseries.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// pointer it saw come from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace hpcem {
namespace {

/// Read through a volatile so the compiler cannot fold the check away.
volatile bool g_pass = true;

template <class... Parts>
[[gnu::noinline]] std::size_t allocations_in_require(const Parts&... parts) {
  const std::size_t before = g_allocations.load();
  require(g_pass, parts...);
  return g_allocations.load() - before;
}

template <class... Parts>
[[gnu::noinline]] std::size_t allocations_in_require_state(
    const Parts&... parts) {
  const std::size_t before = g_allocations.load();
  require_state(g_pass, parts...);
  return g_allocations.load() - before;
}

/// The what() of the Error `fn` throws, or "" when it throws nothing.
template <class Fn>
std::string message_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(RequireAlloc, CountingAllocatorSeesHeapStrings) {
  // Guard against a counter that never counts: a 40-character string is
  // past every small-string buffer.
  const std::size_t before = g_allocations.load();
  const std::string s(40, 'x');
  EXPECT_GT(g_allocations.load() - before, 0u);
  EXPECT_EQ(s.size(), 40u);
}

TEST(RequireAlloc, PassingChecksAllocateNothing) {
  constexpr const char* kLong = "Rng::discrete: weights must be non-negat";
  static_assert(std::char_traits<char>::length(kLong) == 40);
  EXPECT_EQ(allocations_in_require(kLong), 0u);
  EXPECT_EQ(allocations_in_require_state(kLong), 0u);
  EXPECT_EQ(allocations_in_require("Rng::discrete: weights must be non-negat"),
            0u);
  const std::string part = "a string part longer than the SSO buffer";
  const std::uint64_t id = 42;
  EXPECT_EQ(allocations_in_require("Scheduler::finish: job not running: ",
                                   part, id),
            0u);
  EXPECT_EQ(allocations_in_require_state("Scheduler::finish: job not "
                                         "running: ",
                                         part, id, -7),
            0u);
}

TEST(RequireAlloc, FailingChecksJoinTheirParts) {
  EXPECT_EQ(message_of([] { require(false, "plain"); }), "plain");
  const std::string name = "name";
  const std::string_view view = "view";
  EXPECT_EQ(message_of([&] {
              require(false, "a ", name, " b ", view, " ",
                      std::uint64_t{18446744073709551615u}, " ", -42, " ",
                      std::size_t{0});
            }),
            "a name b view 18446744073709551615 -42 0");
  try {
    require_state(false, "state ", 3);
    FAIL() << "should have thrown";
  } catch (const StateError& e) {
    EXPECT_STREQ(e.what(), "state 3");
  }
}

TEST(RequireAlloc, SchedulerMessages) {
  Scheduler s(SchedulerConfig{.nodes = 10});
  EXPECT_EQ(message_of([&] { s.finish(42, SimTime(0.0)); }),
            "Scheduler::finish: job not running: 42");
  EXPECT_EQ(message_of([&] { s.set_expected_end(7, SimTime(0.0)); }),
            "Scheduler::set_expected_end: job not running: 7");
  EXPECT_EQ(message_of([&] { (void)s.allocation(9); }),
            "Scheduler::allocation: job not running: 9");
  JobSpec wide;
  wide.id = 1;
  wide.app = "wide app";
  wide.nodes = 11;
  wide.requested_walltime = Duration::hours(1.0);
  EXPECT_EQ(message_of([&] { s.submit(wide); }),
            "Scheduler::submit: job size must fit the machine: wide app");
}

TEST(RequireAlloc, PartitionedSchedulerMessages) {
  EXPECT_EQ(message_of([] {
              PartitionedScheduler p({{.name = "empty", .nodes = 0}});
            }),
            "PartitionedScheduler: partition needs nodes: empty");
  EXPECT_EQ(message_of([] {
              PartitionedScheduler p({{.name = "standard", .nodes = 4},
                                      {.name = "standard", .nodes = 4}});
            }),
            "PartitionedScheduler: duplicate partition: standard");
  PartitionedScheduler p(PartitionedScheduler::archer2_partitions());
  EXPECT_EQ(message_of([&] { (void)p.utilisation("gpu"); }),
            "PartitionedScheduler: no such partition: gpu");
  EXPECT_EQ(message_of([&] { p.finish("gpu", 1, SimTime(0.0)); }),
            "PartitionedScheduler: no such partition: gpu");
}

TEST(RequireAlloc, AllocatorMessages) {
  NodeAllocator a(10);
  const std::vector<NodeRun> empty;
  EXPECT_EQ(message_of([&] { a.release(empty); }),
            "NodeAllocator::release: empty release");
  const std::vector<NodeRun> out_of_range = {{9, 2}};
  EXPECT_EQ(message_of([&] { a.release(out_of_range); }),
            "NodeAllocator::release: node out of range");
  const std::vector<NodeRun> overlapping = {{0, 3}, {2, 1}};
  EXPECT_EQ(message_of([&] { a.release(overlapping); }),
            "NodeAllocator::release: duplicate node in release");
  const std::vector<NodeRun> already_free = {{0, 1}};
  EXPECT_EQ(message_of([&] { a.release(already_free); }),
            "NodeAllocator::release: node already free (double release)");
}

TEST(RequireAlloc, RecorderMessages) {
  Recorder r;
  r.declare("power", "kW");
  EXPECT_EQ(message_of([&] { (void)r.channel("power", "MW"); }),
            "Recorder::channel: unit mismatch for existing channel power");
  EXPECT_EQ(message_of([&] { (void)r.id("nope"); }),
            "Recorder::id: no such channel: nope");
  const Recorder& cr = r;
  EXPECT_EQ(message_of([&] { (void)cr.channel("nope"); }),
            "Recorder::channel: no such channel: nope");
  EXPECT_EQ(message_of([&] { r.record("nope", SimTime(0.0), 1.0); }),
            "Recorder::record: no such channel: nope");
}

TEST(RequireAlloc, ArgParserMessages) {
  ArgParser args("test");
  args.add_option("load", "x", "a number");
  args.add_option("seed", "1.5", "an integer");
  args.add_flag("quiet", "a flag");
  EXPECT_EQ(message_of([&] { args.add_option("load", "", ""); }),
            "ArgParser: duplicate option load");
  EXPECT_EQ(message_of([&] { args.add_flag("quiet", ""); }),
            "ArgParser: duplicate option quiet");
  EXPECT_EQ(message_of([&] { (void)args.get("nope"); }),
            "ArgParser::get: undeclared option nope");
  EXPECT_EQ(message_of([&] { (void)args.get_double("load"); }),
            "ArgParser: --load expects a number, got: x");
  EXPECT_EQ(message_of([&] { (void)args.get_int("seed"); }),
            "ArgParser: --seed expects an integer, got: 1.5");
}

TEST(RequireAlloc, RunTraceMessage) {
  NodePowerParams np;
  const AppCatalog catalog = AppCatalog::archer2(np);
  FacilitySimConfig cfg;
  cfg.inventory.compute_nodes = 512;
  cfg.inventory.switches = 64;
  cfg.inventory.cabinets = 2;
  cfg.gen.max_job_nodes = 128;
  FacilitySimulator sim(catalog, cfg);
  std::vector<JobSpec> jobs(1);
  jobs[0].id = 1;
  jobs[0].app = "not-in-catalogue";
  jobs[0].nodes = 1;
  jobs[0].requested_walltime = Duration::hours(1.0);
  const SimTime start = sim_time_from_date({2022, 3, 1});
  EXPECT_EQ(message_of([&] {
              sim.run_trace(jobs, start, start + Duration::days(1.0));
            }),
            "run_trace: unknown application in trace: not-in-catalogue");
}

TEST(RequireAlloc, ServeMessages) {
  RunArtifact a;
  a.scenario = "base";
  a.source = "simulation";
  a.machine = "archer2";
  TimeSeries series("kW");
  series.append(SimTime(0.0), 1.0);
  series.append(SimTime(3600.0), 1.0);
  a.window_start = series.start_time();
  a.window_end = series.end_time();
  a.channels.push_back(aggregate_channel("cabinet_kw", series, true));
  serve::ArtifactStore store;
  store.add(a);
  serve::MultiStore stores;
  stores.attach(store);
  const serve::QueryEngine engine(stores);
  EXPECT_EQ(message_of([&] {
              (void)engine.evaluate(serve::QueryRequest::from_json_text(
                  R"({"op":"window_aggregate","scenario":"base",)"
                  R"("channel":"nope"})"));
            }),
            "query: unknown channel 'nope' in scenario 'base'");
  EXPECT_EQ(message_of([&] { (void)stores.at("nope"); }),
            "ArtifactStore: unknown scenario 'nope'");
  EXPECT_EQ(message_of([&] { (void)store.at("nope"); }),
            "ArtifactStore: unknown scenario 'nope'");
  EXPECT_EQ(message_of([&] { (void)store.at(std::size_t{5}); }),
            "ArtifactStore: scenario id 5 out of range");
  EXPECT_EQ(message_of([&] { (void)stores.shard(3); }),
            "MultiStore: shard index 3 out of range (have 1)");
}

}  // namespace
}  // namespace hpcem
