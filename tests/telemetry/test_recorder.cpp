// Unit tests for the telemetry recorder.
#include <gtest/gtest.h>

#include "telemetry/recorder.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(Recorder, CreateAndRecord) {
  Recorder rec;
  const ChannelId power = rec.declare("power", "kW");
  EXPECT_TRUE(rec.find("power").has_value());
  EXPECT_FALSE(rec.find("other").has_value());
  rec.record(power, SimTime(0.0), 3220.0);
  rec.record(power, SimTime(1.0), 3221.0);
  // The read by name sees what the handle wrote.
  EXPECT_EQ(&rec.channel("power"), &rec.series(power));
  EXPECT_EQ(rec.channel("power").size(), 2u);
  EXPECT_EQ(rec.channel("power").unit(), "kW");
  EXPECT_EQ(rec.channel("power")[1].value, 3221.0);
}

TEST(Recorder, ReDeclareSameUnitIsIdempotent) {
  Recorder rec;
  const ChannelId a = rec.declare("x", "kW");
  rec.record(a, SimTime(0.0), 1.0);
  const ChannelId b = rec.declare("x", "kW");
  EXPECT_EQ(a, b);
  EXPECT_EQ(rec.channel_count(), 1u);
  EXPECT_EQ(rec.series(b).size(), 1u);
}

TEST(Recorder, UnitMismatchThrows) {
  // A rejected re-declare leaves the existing channel as it was.
  Recorder rec;
  const ChannelId x = rec.declare("x", "kW");
  rec.record(x, SimTime(0.0), 1.0);
  EXPECT_THROW(rec.declare("x", "MW"), InvalidArgument);
  EXPECT_EQ(rec.channel_count(), 1u);
  EXPECT_EQ(rec.series(x).unit(), "kW");
  EXPECT_EQ(rec.series(x).size(), 1u);
}

TEST(Recorder, UnknownChannelThrows) {
  Recorder rec;
  EXPECT_THROW((void)rec.channel("nope"), StateError);
}

TEST(Recorder, ChannelNamesSorted) {
  Recorder rec;
  rec.declare("zeta", "x");
  rec.declare("alpha", "x");
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
  // A handle names the same channel, samples intact, however far the
  // channel table grows after it was issued.
  Recorder rec;
  const ChannelId first = rec.declare("ch_first", "kW");
  rec.record(first, SimTime(0.0), 1.0);
  for (int i = 0; i < 200; ++i) {
    rec.declare("ch_" + std::to_string(i), "kW");
  }
  rec.record(first, SimTime(1.0), 2.0);
  EXPECT_EQ(rec.name(first), "ch_first");
  EXPECT_EQ(rec.id("ch_first"), first);
  ASSERT_EQ(rec.series(first).size(), 2u);
  EXPECT_EQ(rec.series(first)[0].value, 1.0);
  EXPECT_EQ(rec.series(first)[1].value, 2.0);
}

}  // namespace
}  // namespace hpcem
