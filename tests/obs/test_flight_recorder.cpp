// The flight recorder: request-scope propagation, the bounded per-thread
// ring (append, wrap, reset), and the deterministic postmortem document.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/postmortem.hpp"
#include "obs/request_context.hpp"
#include "obs/span.hpp"

namespace hpcem::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_collected();
    set_enabled(true);
    set_deterministic(true);
  }
  void TearDown() override {
    set_enabled(false);
    set_deterministic(false);
    reset_collected();
  }
};

TEST_F(FlightRecorderTest, RequestScopesNestAndRestore) {
  EXPECT_EQ(current_request(), 0u);
  {
    const RequestScope outer(5);
    EXPECT_EQ(current_request(), 5u);
    {
      const RequestScope inner(7);
      EXPECT_EQ(current_request(), 7u);
    }
    EXPECT_EQ(current_request(), 5u);
  }
  EXPECT_EQ(current_request(), 0u);
}

TEST_F(FlightRecorderTest, EventsCarryTheActiveRequestId) {
  const NameId lookup = intern_name("flight.lookup");
  {
    const RequestScope scope(42);
    record_event(lookup, 9);
  }
  record_event(lookup, 1);  // outside any request: id 0

  const FlightSnapshot snap = flight_snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  const auto& records = snap.threads[0].records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "flight.lookup");
  EXPECT_EQ(records[0].kind, FlightKind::kInstant);
  EXPECT_EQ(records[0].request, 42u);
  EXPECT_EQ(records[0].end, 9u);  // the aux word
  EXPECT_EQ(records[1].request, 0u);
  EXPECT_EQ(records[1].end, 1u);
}

TEST_F(FlightRecorderTest, RequestSpansReachTheRing) {
  {
    const RequestScope scope(3);
    HPCEM_OBS_SPAN("flight.handler");
  }
  const FlightSnapshot snap = flight_snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].records.size(), 1u);
  const FlightRecord& r = snap.threads[0].records[0];
  EXPECT_EQ(r.name, "flight.handler");
  EXPECT_EQ(r.kind, FlightKind::kSpan);
  EXPECT_EQ(r.request, 3u);
  EXPECT_LT(r.begin, r.end);
}

TEST_F(FlightRecorderTest, SpansOutsideAnyRequestDoNotReachTheRing) {
  ASSERT_EQ(current_request(), 0u);
  { HPCEM_OBS_SPAN("flight.unscoped"); }
  EXPECT_TRUE(flight_snapshot().threads.empty());  // ring untouched
  // The span buffer still has it: only the ring is request-keyed.
  const TraceSnapshot trace = trace_snapshot();
  ASSERT_EQ(trace.threads.size(), 1u);
  ASSERT_EQ(trace.threads[0].spans.size(), 1u);
  EXPECT_EQ(name_of(trace.threads[0].spans[0].name), "flight.unscoped");
}

TEST_F(FlightRecorderTest, RingKeepsOnlyTheMostRecentRecords) {
  const NameId tick = intern_name("flight.tick");
  const std::size_t total = kFlightRingSlots + 476;
  for (std::size_t i = 0; i < total; ++i) {
    record_event(tick, i);  // aux identifies the record
  }
  const FlightSnapshot snap = flight_snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  const auto& records = snap.threads[0].records;
  ASSERT_EQ(records.size(), kFlightRingSlots);
  // Oldest surviving record first: the first 476 were overwritten.
  EXPECT_EQ(records.front().end, 476u);
  EXPECT_EQ(records.back().end, total - 1);
}

TEST_F(FlightRecorderTest, ResetClearsTheRing) {
  record_event(intern_name("flight.gone"), 1);
  ASSERT_FALSE(flight_snapshot().threads.empty());
  reset_collected();
  EXPECT_TRUE(flight_snapshot().threads.empty());
}

/// A fixed little request workload; byte-stability of the postmortem
/// document is the whole point of the deterministic mode.
std::string postmortem_bytes() {
  reset_collected();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const RequestScope scope(id);
    HPCEM_OBS_SPAN("flight.pm.request");
    record_event(intern_name("flight.pm.lookup"), id * 10);
  }
  PostmortemTrigger trigger;
  trigger.reason = "query_error";
  trigger.request = 3;
  trigger.elapsed = 12;
  trigger.threshold = 0;
  return postmortem_json(trigger, flight_snapshot()).dump(2);
}

TEST_F(FlightRecorderTest, PostmortemDocumentIsByteStable) {
  const std::string first = postmortem_bytes();
  EXPECT_EQ(postmortem_bytes(), first);
  EXPECT_NE(first.find("\"schema\": \"hpcem.postmortem\""),
            std::string::npos);
  EXPECT_NE(first.find("\"reason\": \"query_error\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\": \"span\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\": \"instant\""), std::string::npos);
}

TEST_F(FlightRecorderTest, DisabledCollectionRecordsNothing) {
  set_enabled(false);
  const RequestScope scope(9);
  record_event(intern_name("flight.off"), 1);
  { HPCEM_OBS_SPAN("flight.off.span"); }
  set_enabled(true);
  EXPECT_TRUE(flight_snapshot().threads.empty());
}

}  // namespace
}  // namespace hpcem::obs
