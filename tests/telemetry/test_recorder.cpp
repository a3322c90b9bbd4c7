// Unit tests for the telemetry recorder and rolling window.
#include <gtest/gtest.h>

#include "telemetry/recorder.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(Recorder, CreateAndRecord) {
  Recorder rec;
  rec.channel("power", "kW");
  EXPECT_TRUE(rec.has_channel("power"));
  EXPECT_FALSE(rec.has_channel("other"));
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

TEST(Recorder, CsvExportLongFormat) {
  Recorder rec;
  rec.channel("power", "kW");
  rec.record("power", sim_time_from_date({2022, 5, 9}), 3220.0);
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("time,channel,unit,value"), std::string::npos);
  EXPECT_NE(csv.find("2022-05-09 00:00,power,kW"), std::string::npos);
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
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.integrate(), b.integrate());
  EXPECT_EQ(by_handle.to_csv(), by_name.to_csv());
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

TEST(Recorder, CsvExportGoldenLayout) {
  // Exact byte layout: header then channels in name order, samples in
  // time order, values rendered with six decimals.
  Recorder rec;
  const ChannelId util = rec.declare("util", "fraction");
  const ChannelId power = rec.declare("power", "kW");
  const SimTime t0 = sim_time_from_date({2022, 5, 9});
  rec.record(power, t0, 3220.0);
  rec.record(power, t0 + Duration::minutes(30.0), 3010.5);
  rec.record(util, t0, 0.9);
  EXPECT_EQ(rec.to_csv(),
            "time,channel,unit,value\n"
            "2022-05-09 00:00,power,kW,3220.000000\n"
            "2022-05-09 00:30,power,kW,3010.500000\n"
            "2022-05-09 00:00,util,fraction,0.900000\n");
}

TEST(RollingWindow, MeanMinMaxOverWindow) {
  RollingWindow w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 10.0);
  EXPECT_EQ(w.size(), 3u);
}

TEST(RollingWindow, PartialWindow) {
  RollingWindow w(5);
  w.add(4.0);
  EXPECT_FALSE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
}

TEST(RollingWindow, EmptyThrows) {
  RollingWindow w(2);
  EXPECT_THROW(w.mean(), StateError);
  EXPECT_THROW(w.min(), StateError);
  EXPECT_THROW(w.max(), StateError);
}

TEST(RollingWindow, ZeroCapacityThrows) {
  EXPECT_THROW(RollingWindow(0), InvalidArgument);
}

TEST(RollingWindow, NoDriftOnAdversarialLongStream) {
  // Regression: the window keeps a running sum with one add and one
  // subtract per sample.  A naive double sum silently absorbs the small
  // samples that share the window with a large transient (adding 1.0 to
  // 1e17 is a no-op in double), so after the transient is evicted the sum
  // — and every mean thereafter — is permanently wrong.  The compensated
  // sum must come back to the exact mean every time.
  RollingWindow w(16);
  for (int burst = 0; burst < 50; ++burst) {
    w.add(1.0e17);
    for (int i = 0; i < 999; ++i) {
      w.add(1.0);
      if (i > 32) {
        // Transient long gone; the window is sixteen 1.0 samples.
        ASSERT_DOUBLE_EQ(w.mean(), 1.0)
            << "drift after burst " << burst << " sample " << i;
      }
    }
  }
  EXPECT_DOUBLE_EQ(w.mean(), 1.0);
  EXPECT_DOUBLE_EQ(w.min(), 1.0);
  EXPECT_DOUBLE_EQ(w.max(), 1.0);
}

TEST(RollingWindow, MeanExactUnderRepeatedCancellation) {
  // Second adversarial shape: a periodic stream +1e16, -1e16, 0.5, 0.5
  // where every full window sums to exactly 1.0.  Adding 0.5 into a sum
  // holding 1e16 rounds it away (ulp(1e16) = 2), so an uncompensated
  // running sum drifts by 0.5 per cycle; the compensated sum captures the
  // rounding error exactly and every full-window mean is exactly 0.25.
  RollingWindow w(4);
  const double pattern[4] = {1.0e16, -1.0e16, 0.5, 0.5};
  for (int i = 0; i < 4000; ++i) {
    w.add(pattern[i % 4]);
    if (i >= 3) {
      ASSERT_DOUBLE_EQ(w.mean(), 0.25) << "at sample " << i;
    }
  }
}

}  // namespace
}  // namespace hpcem
