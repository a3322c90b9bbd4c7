// Unit tests for the telemetry recorder.
#include <gtest/gtest.h>

#include "telemetry/recorder.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(Recorder, CreateAndRecord) {
  Recorder rec;
  rec.channel("power", "kW");
  EXPECT_TRUE(rec.find("power").has_value());
  EXPECT_FALSE(rec.find("other").has_value());
  rec.record("power", SimTime(0.0), 3220.0);
  rec.record("power", SimTime(1.0), 3221.0);
  EXPECT_EQ(rec.channel("power").size(), 2u);
  EXPECT_EQ(rec.channel("power").unit(), "kW");
}

TEST(Recorder, ReDeclareSameUnitIsIdempotent) {
  Recorder rec;
  TimeSeries& a = rec.channel("x", "kW");
  a.append(SimTime(0.0), 1.0);
  TimeSeries& b = rec.channel("x", "kW");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Recorder, UnitMismatchThrows) {
  Recorder rec;
  rec.channel("x", "kW");
  EXPECT_THROW(rec.channel("x", "MW"), InvalidArgument);
}

TEST(Recorder, UnknownChannelThrows) {
  Recorder rec;
  EXPECT_THROW(rec.record("nope", SimTime(0.0), 1.0), StateError);
  EXPECT_THROW(rec.channel("nope"), StateError);
}

TEST(Recorder, ChannelNamesSorted) {
  Recorder rec;
  rec.channel("zeta", "x");
  rec.channel("alpha", "x");
  const auto names = rec.channel_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(Recorder, DeclareReturnsStableHandles) {
  Recorder rec;
  const ChannelId a = rec.declare("power", "kW");
  const ChannelId b = rec.declare("util", "fraction");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  // Re-declaring yields the same handle.
  EXPECT_EQ(rec.declare("power", "kW"), a);
  EXPECT_EQ(rec.channel_count(), 2u);
  EXPECT_EQ(rec.name(a), "power");
  EXPECT_EQ(rec.name(b), "util");
}

TEST(Recorder, DefaultChannelIdIsInvalid) {
  const ChannelId id;
  EXPECT_FALSE(id.valid());
}

TEST(Recorder, HandleRecordMatchesStringRecord) {
  Recorder by_handle;
  Recorder by_name;
  const ChannelId id = by_handle.declare("power", "kW");
  by_name.declare("power", "kW");
  for (int i = 0; i < 100; ++i) {
    const SimTime t(static_cast<double>(i));
    const double v = 3000.0 + i;
    by_handle.record(id, t, v);
    by_name.record("power", t, v);
  }
  const TimeSeries& a = by_handle.series(id);
  const TimeSeries& b = by_name.channel("power");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  EXPECT_EQ(a.unit(), b.unit());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.integrate(), b.integrate());
}

TEST(Recorder, FindAndId) {
  Recorder rec;
  const ChannelId id = rec.declare("power", "kW");
  ASSERT_TRUE(rec.find("power").has_value());
  EXPECT_EQ(*rec.find("power"), id);
  EXPECT_FALSE(rec.find("missing").has_value());
  EXPECT_EQ(rec.id("power"), id);
  EXPECT_THROW(rec.id("missing"), StateError);
}

TEST(Recorder, SeriesWithInvalidHandleThrows) {
  Recorder rec;
  EXPECT_THROW(rec.series(ChannelId{}), StateError);
  EXPECT_THROW(rec.name(ChannelId{}), StateError);
}

TEST(Recorder, DeclareUnitMismatchThrows) {
  Recorder rec;
  rec.declare("x", "kW");
  EXPECT_THROW(rec.declare("x", "MW"), InvalidArgument);
}

TEST(Recorder, HandlesSurviveManyLaterDeclares) {
  // The dense channel table must not invalidate outstanding references
  // when it grows.
  Recorder rec;
  const ChannelId first = rec.declare("ch_first", "kW");
  const TimeSeries* addr = &rec.series(first);
  for (int i = 0; i < 200; ++i) {
    rec.declare("ch_" + std::to_string(i), "kW");
  }
  EXPECT_EQ(&rec.series(first), addr);
  rec.record(first, SimTime(0.0), 1.0);
  EXPECT_EQ(rec.series(first).size(), 1u);
}

}  // namespace
}  // namespace hpcem
