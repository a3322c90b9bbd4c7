// Tests for the typed discrete-event engine, including the same-instant
// tie-break contract the facility simulator's determinism rests on (see
// sim/engine.hpp file comment and DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

const SimTime kFar{1e18};

/// Drain every due event up to `until`, collecting them in pop order.
std::vector<SimEvent> drain(SimEngine& e, SimTime until = kFar) {
  std::vector<SimEvent> out;
  SimEvent ev;
  while (e.next(until, ev)) out.push_back(ev);
  return out;
}

TEST(Engine, ProcessesEventsInTimeOrder) {
  SimEngine e;
  e.schedule(SimTime(30.0), SimEventKind::kFinish, 3);
  e.schedule(SimTime(10.0), SimEventKind::kFinish, 1);
  e.schedule(SimTime(20.0), SimEventKind::kFinish, 2);
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].payload, 1u);
  EXPECT_EQ(events[1].payload, 2u);
  EXPECT_EQ(events[2].payload, 3u);
  EXPECT_EQ(e.processed(), 3u);
  EXPECT_DOUBLE_EQ(e.now().sec(), 30.0);
}

TEST(Engine, SimultaneousEventsRunFifoWithinBand) {
  SimEngine e;
  for (std::uint64_t i = 0; i < 10; ++i) {
    e.schedule(SimTime(5.0), SimEventKind::kSubmit, i);
  }
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].payload, i);
  }
}

TEST(Engine, SimultaneousStaticsRunFifoWithinBand) {
  SimEngine e;
  for (std::uint64_t i = 0; i < 10; ++i) {
    e.schedule_static(SimTime(5.0), SimEventKind::kPolicyChange, i);
  }
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].payload, i);
  }
}

// The contract the facility simulator's observable determinism rests on:
// at one instant, pre-run statics (policy changes, maintenance, trace
// submits — in scheduling order) precede the workload tick, which
// precedes the sample tick, which precedes every runtime-scheduled event
// (finishes, generated submits — in scheduling order).  This reproduces
// the closure calendar's order, where pre-run scheduling handed out
// global sequence numbers before any runtime handler ran.
TEST(Engine, SameInstantOrderIsStaticsThenTicksThenRuntime) {
  SimEngine e;
  const SimTime t(100.0);
  // Scheduled deliberately out of band order.
  e.schedule(t, SimEventKind::kFinish, 70);          // runtime
  e.schedule_static(t, SimEventKind::kPolicyChange, 10);
  e.schedule(t, SimEventKind::kSubmit, 71);          // runtime
  e.schedule_static(t, SimEventKind::kMaintenanceBegin, 11);
  e.set_workload_stream(t, Duration::hours(1.0), SimTime(101.0));
  e.set_sample_stream(t, Duration::hours(1.0), SimTime(101.0));
  e.schedule_static(t, SimEventKind::kSubmit, 12);   // e.g. trace submit

  const auto events = drain(e);
  ASSERT_EQ(events.size(), 7u);
  // Statics first, in scheduling order.
  EXPECT_EQ(events[0].kind, SimEventKind::kPolicyChange);
  EXPECT_EQ(events[0].payload, 10u);
  EXPECT_EQ(events[1].kind, SimEventKind::kMaintenanceBegin);
  EXPECT_EQ(events[1].payload, 11u);
  EXPECT_EQ(events[2].kind, SimEventKind::kSubmit);
  EXPECT_EQ(events[2].payload, 12u);
  // Then the periodic ticks: workload before sample.
  EXPECT_EQ(events[3].kind, SimEventKind::kWorkloadHour);
  EXPECT_EQ(events[4].kind, SimEventKind::kSample);
  // Runtime events last, in scheduling order.
  EXPECT_EQ(events[5].kind, SimEventKind::kFinish);
  EXPECT_EQ(events[5].payload, 70u);
  EXPECT_EQ(events[6].kind, SimEventKind::kSubmit);
  EXPECT_EQ(events[6].payload, 71u);
}

// A finish landing exactly on a sample instant must run after the sample
// (the closure calendar scheduled all samples pre-run), and a runtime
// event scheduled *while processing* that instant still lands behind
// pre-scheduled runtime events of the same instant.
TEST(Engine, SampleTickPrecedesSameInstantFinish) {
  SimEngine e;
  e.set_sample_stream(SimTime(0.0), Duration::seconds(10.0), SimTime(25.0));
  e.schedule(SimTime(10.0), SimEventKind::kFinish, 1);
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 4u);  // samples at 0, 10, 20 + finish at 10
  EXPECT_EQ(events[0].kind, SimEventKind::kSample);
  EXPECT_EQ(events[1].kind, SimEventKind::kSample);
  EXPECT_DOUBLE_EQ(events[1].time.sec(), 10.0);
  EXPECT_EQ(events[2].kind, SimEventKind::kFinish);
  EXPECT_DOUBLE_EQ(events[2].time.sec(), 10.0);
  EXPECT_EQ(events[3].kind, SimEventKind::kSample);
  EXPECT_DOUBLE_EQ(events[3].time.sec(), 20.0);
}

TEST(Engine, StreamsGenerateTicksLazily) {
  SimEngine e;
  e.set_sample_stream(SimTime(0.0), Duration::seconds(1.0), SimTime(1e6));
  // A million ticks are pending conceptually, but nothing is heap-resident.
  EXPECT_EQ(e.pending(), 0u);
  SimEvent ev;
  ASSERT_TRUE(e.next(SimTime(2.5), ev));
  EXPECT_DOUBLE_EQ(ev.time.sec(), 0.0);
  ASSERT_TRUE(e.next(SimTime(2.5), ev));
  EXPECT_DOUBLE_EQ(ev.time.sec(), 1.0);
  ASSERT_TRUE(e.next(SimTime(2.5), ev));
  EXPECT_DOUBLE_EQ(ev.time.sec(), 2.0);
  EXPECT_FALSE(e.next(SimTime(2.5), ev));
  EXPECT_DOUBLE_EQ(e.now().sec(), 2.0);
}

TEST(Engine, StreamEndIsExclusive) {
  SimEngine e;
  // Ticks strictly before end: 0, 10, 20 — not 30.
  e.set_sample_stream(SimTime(0.0), Duration::seconds(10.0), SimTime(30.0));
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events.back().time.sec(), 20.0);
}

TEST(Engine, EmptyStreamWindowYieldsNothing) {
  SimEngine e(SimTime(50.0));
  e.set_sample_stream(SimTime(50.0), Duration::seconds(10.0), SimTime(50.0));
  SimEvent ev;
  EXPECT_FALSE(e.next(kFar, ev));
}

TEST(Engine, NextStopsAtBoundaryInclusive) {
  SimEngine e;
  e.schedule(SimTime(10.0), SimEventKind::kFinish, 1);
  e.schedule(SimTime(20.0), SimEventKind::kFinish, 2);
  e.schedule(SimTime(30.0), SimEventKind::kFinish, 3);
  const auto in_window = drain(e, SimTime(20.0));
  EXPECT_EQ(in_window.size(), 2u);  // 20.0 is inclusive
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now().sec(), 20.0);
  const auto rest = drain(e, SimTime(100.0));
  EXPECT_EQ(rest.size(), 1u);
  // The clock advances to the window end only on request.
  e.advance_to(SimTime(100.0));
  EXPECT_DOUBLE_EQ(e.now().sec(), 100.0);
}

TEST(Engine, EventsScheduledDuringRunHonouredWithinWindow) {
  SimEngine e;
  e.schedule(SimTime(5.0), SimEventKind::kSubmit, 0);
  SimEvent ev;
  ASSERT_TRUE(e.next(SimTime(10.0), ev));
  // A handler reacting to the submit schedules more events.
  e.schedule(SimTime(8.0), SimEventKind::kFinish, 1);
  e.schedule(SimTime(50.0), SimEventKind::kFinish, 2);
  ASSERT_TRUE(e.next(SimTime(10.0), ev));
  EXPECT_EQ(ev.payload, 1u);
  EXPECT_FALSE(e.next(SimTime(10.0), ev));
  EXPECT_EQ(e.pending(), 1u);
}

// A run is shorthand for one `schedule` call per event: at one instant,
// run events and scheduled runtime events pop in call order, whichever way
// they were queued.
TEST(Engine, RunAndScheduledEventsAtOneInstantPopInCallOrder) {
  SimEngine e;
  const SimTime t(5.0);
  e.schedule(t, SimEventKind::kFinish, 1);
  const std::vector<SimEngine::RunEvent> first = {{t, 2}, {t, 3}};
  e.schedule_run(SimEventKind::kSubmit, first);
  e.schedule(t, SimEventKind::kFinish, 4);
  const std::vector<SimEngine::RunEvent> second = {{t, 5}};
  e.schedule_run(SimEventKind::kSubmit, second);
  e.schedule_static(t, SimEventKind::kPolicyChange, 0);
  EXPECT_EQ(e.pending(), 6u);
  const auto events = drain(e);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, SimEventKind::kPolicyChange);
  for (std::uint64_t i = 1; i < 6; ++i) {
    EXPECT_EQ(events[i].payload, i);
    EXPECT_EQ(events[i].kind, i % 3 == 1 ? SimEventKind::kFinish
                                         : SimEventKind::kSubmit);
  }
}

/// Pops of a seeded mix of streams, statics, runtime events and hourly
/// runs, each run sorted by time except now and then; `as_runs` false
/// queues every run event through `schedule` instead.
std::vector<SimEvent> seeded_mix(bool as_runs) {
  SimEngine e;
  Rng rng(2024);
  const SimTime end(48.0 * 3600.0);
  e.set_workload_stream(SimTime(0.0), Duration::hours(1.0), end);
  e.set_sample_stream(SimTime(0.0), Duration::minutes(30.0), end);
  for (int i = 0; i < 20; ++i) {
    e.schedule_static(SimTime(1800.0 * static_cast<double>(rng.uniform_int(0, 95))),
                      SimEventKind::kPolicyChange,
                      static_cast<std::uint64_t>(i));
  }
  std::uint64_t payload = 100;
  std::vector<SimEngine::RunEvent> run;
  std::vector<SimEvent> out;
  SimEvent ev;
  while (e.next(end, ev)) {
    out.push_back(ev);
    if (ev.kind == SimEventKind::kWorkloadHour) {
      run.clear();
      const auto n = rng.uniform_int(0, 30);
      for (std::int64_t i = 0; i < n; ++i) {
        // Whole minutes, so events share instants within and across runs.
        const double at = 60.0 * static_cast<double>(rng.uniform_int(0, 60));
        run.push_back({ev.time + Duration::seconds(at), payload++});
      }
      if (!rng.bernoulli(0.2)) {
        std::sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
          return a.time < b.time;
        });
      }
      if (as_runs) {
        e.schedule_run(SimEventKind::kSubmit, run);
      } else {
        for (const auto& r : run) {
          e.schedule(r.time, SimEventKind::kSubmit, r.payload);
        }
      }
    } else if (ev.kind == SimEventKind::kSubmit && rng.bernoulli(0.5)) {
      const double after = 60.0 * static_cast<double>(rng.uniform_int(0, 90));
      e.schedule(ev.time + Duration::seconds(after), SimEventKind::kFinish,
                 payload++);
    }
  }
  return out;
}

TEST(Engine, SeededRunsPopAsTheSameEventsScheduledOneByOne) {
  const auto want = seeded_mix(false);
  const auto got = seeded_mix(true);
  EXPECT_GT(want.size(), 1000u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << i;
    ASSERT_EQ(got[i].payload, want[i].payload) << i;
  }
}

// A submit at hour_start + hours(u), u < 1, can round onto the next hour's
// tick.  The tick pops first, so the next hour's run is queued while the
// current one still holds that submit; it must still pop before the next
// run's events at the same instant.
TEST(Engine, RunQueuedBeforeThePreviousOneDrainedKeepsItsOrder) {
  const SimTime t0(1.6e9);
  const SimTime t1 = t0 + Duration::hours(1.0);
  const SimTime rounded = t0 + Duration::hours(1.0 - 1e-12);
  ASSERT_EQ(rounded, t1);
  SimEngine e(t0);
  e.set_workload_stream(t0, Duration::hours(1.0), t0 + Duration::hours(2.0));
  SimEvent ev;
  ASSERT_TRUE(e.next(kFar, ev));
  ASSERT_EQ(ev.kind, SimEventKind::kWorkloadHour);
  const std::vector<SimEngine::RunEvent> hour0 = {
      {t0 + Duration::hours(0.5), 1}, {rounded, 2}};
  e.schedule_run(SimEventKind::kSubmit, hour0);
  ASSERT_TRUE(e.next(kFar, ev));
  EXPECT_EQ(ev.payload, 1u);
  ASSERT_TRUE(e.next(kFar, ev));
  EXPECT_EQ(ev.kind, SimEventKind::kWorkloadHour);
  EXPECT_EQ(ev.time, t1);
  EXPECT_EQ(e.pending(), 1u);
  const std::vector<SimEngine::RunEvent> hour1 = {
      {t1, 3}, {t1 + Duration::hours(0.25), 4}};
  e.schedule_run(SimEventKind::kSubmit, hour1);
  EXPECT_EQ(e.pending(), 3u);
  e.schedule(t1, SimEventKind::kFinish, 5);
  const auto rest = drain(e);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].payload, 2u);
  EXPECT_EQ(rest[0].time, t1);
  EXPECT_EQ(rest[1].payload, 3u);
  EXPECT_EQ(rest[2].payload, 5u);
  EXPECT_EQ(rest[2].kind, SimEventKind::kFinish);
  EXPECT_EQ(rest[3].payload, 4u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, SchedulingInThePastThrows) {
  SimEngine e(SimTime(100.0));
  EXPECT_THROW(e.schedule(SimTime(50.0), SimEventKind::kFinish),
               InvalidArgument);
  EXPECT_THROW(e.schedule_static(SimTime(50.0), SimEventKind::kSample),
               InvalidArgument);
  EXPECT_NO_THROW(e.schedule(SimTime(100.0), SimEventKind::kFinish));
  const std::vector<SimEngine::RunEvent> past = {{SimTime(50.0), 0}};
  EXPECT_THROW(e.schedule_run(SimEventKind::kSubmit, past), InvalidArgument);
}

TEST(Engine, NonPositiveStreamPeriodRejected) {
  SimEngine e;
  EXPECT_THROW(e.set_sample_stream(SimTime(0.0), Duration::seconds(0.0),
                                   SimTime(10.0)),
               InvalidArgument);
  EXPECT_THROW(e.set_workload_stream(SimTime(0.0), Duration::seconds(-1.0),
                                     SimTime(10.0)),
               InvalidArgument);
}

TEST(Engine, AdvanceToNeverRewinds) {
  SimEngine e(SimTime(100.0));
  e.advance_to(SimTime(50.0));
  EXPECT_DOUBLE_EQ(e.now().sec(), 100.0);
  e.advance_to(SimTime(150.0));
  EXPECT_DOUBLE_EQ(e.now().sec(), 150.0);
}

TEST(Engine, LargeEventVolume) {
  SimEngine e;
  for (int i = 0; i < 100000; ++i) {
    e.schedule(SimTime(static_cast<double>(i % 997)), SimEventKind::kFinish,
               static_cast<std::uint64_t>(i));
  }
  std::uint64_t count = 0;
  SimEvent ev;
  while (e.next(kFar, ev)) ++count;
  EXPECT_EQ(count, 100000u);
}

}  // namespace
}  // namespace hpcem
