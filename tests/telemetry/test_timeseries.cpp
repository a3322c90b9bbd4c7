// Unit tests for the TimeSeries container.
#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/timeseries.hpp"
#include "util/units.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TimeSeries ramp(std::size_t n, double dt = 1.0) {
  TimeSeries ts("kW");
  for (std::size_t i = 0; i < n; ++i) {
    ts.append(SimTime(static_cast<double>(i) * dt), static_cast<double>(i));
  }
  return ts;
}

TEST(TimeSeries, AppendAndAccess) {
  TimeSeries ts("kW");
  EXPECT_TRUE(ts.empty());
  ts.append(SimTime(0.0), 1.0);
  ts.append(SimTime(1.0), 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[1].value, 2.0);
  EXPECT_EQ(ts.unit(), "kW");
}

TEST(TimeSeries, RejectsOutOfOrderAppend) {
  TimeSeries ts;
  ts.append(SimTime(10.0), 1.0);
  EXPECT_THROW(ts.append(SimTime(5.0), 2.0), InvalidArgument);
  // Equal timestamps are allowed (multiple sensors can coincide).
  EXPECT_NO_THROW(ts.append(SimTime(10.0), 3.0));
}

TEST(TimeSeries, StartEndSpan) {
  const TimeSeries ts = ramp(11);
  EXPECT_DOUBLE_EQ(ts.start_time().sec(), 0.0);
  EXPECT_DOUBLE_EQ(ts.end_time().sec(), 10.0);
  EXPECT_DOUBLE_EQ(ts.span().sec(), 10.0);
}

TEST(TimeSeries, EmptyAccessorsThrow) {
  const TimeSeries ts;
  EXPECT_THROW(ts.start_time(), StateError);
  EXPECT_THROW(ts.end_time(), StateError);
  EXPECT_THROW(ts.mean(), StateError);
  EXPECT_THROW(ts.value_at(SimTime(0.0)), StateError);
}

TEST(TimeSeries, SliceHalfOpen) {
  const TimeSeries ts = ramp(10);
  const TimeSeries s = ts.slice(SimTime(2.0), SimTime(5.0));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0].value, 2.0);
  EXPECT_DOUBLE_EQ(s[2].value, 4.0);
  EXPECT_EQ(s.unit(), "kW");
}

TEST(TimeSeries, MeanAndMeanOver) {
  const TimeSeries ts = ramp(5);  // 0,1,2,3,4
  EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(SimTime(1.0), SimTime(4.0)), 2.0);
  EXPECT_THROW(ts.mean_over(SimTime(100.0), SimTime(200.0)), StateError);
}

TEST(TimeSeries, IntegrateTrapezoid) {
  TimeSeries ts("W");
  ts.append(SimTime(0.0), 0.0);
  ts.append(SimTime(10.0), 10.0);
  // Triangle: 0.5 * 10 * 10 = 50 W·s.
  EXPECT_DOUBLE_EQ(ts.integrate(), 50.0);
}

TEST(TimeSeries, IntegrateConstantPowerGivesExpectedKwh) {
  TimeSeries ts("W");
  ts.append(SimTime(0.0), 1000.0);
  ts.append(SimTime(3600.0), 1000.0);
  // 1 kW for an hour: 3.6e6 W s, one kWh.
  EXPECT_DOUBLE_EQ(Energy::joules(ts.integrate()).to_kwh(), 1.0);
}

TEST(TimeSeries, SpikeDoesNotEraseSmallSamples) {
  // A naive double sum absorbs every 1.0 into a 1e17 spike (ulp 16), so
  // the sum, the mean and the integral would lose all 999 unit samples.
  // The compensated accumulators keep them.
  TimeSeries ts;
  ts.append(SimTime(0.0), 1.0e17);
  for (int i = 1; i < 1000; ++i) ts.append(SimTime(i), 1.0);
  EXPECT_NEAR(ts.value_sum() - 1.0e17, 999.0, 16.0);
  EXPECT_NEAR(ts.mean() - 1.0e14, 0.999, 0.02);
  // First segment (1e17 + 1) / 2, then 998 unit segments.
  EXPECT_NEAR(ts.integrate() - 5.0e16, 998.5, 8.0);
}

TEST(TimeSeries, IntegrateDegenerate) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.integrate(), 0.0);
  ts.append(SimTime(0.0), 5.0);
  EXPECT_DOUBLE_EQ(ts.integrate(), 0.0);
}

TEST(TimeSeries, ValueAtInterpolatesAndClamps) {
  TimeSeries ts;
  ts.append(SimTime(0.0), 0.0);
  ts.append(SimTime(10.0), 100.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime(5.0)), 50.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime(-1.0)), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime(99.0)), 100.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime(10.0)), 100.0);
}

TEST(TimeSeries, ResampleBucketAverages) {
  const TimeSeries ts = ramp(100);  // values 0..99 at 1s spacing
  const TimeSeries r = ts.resample(Duration::seconds(10.0));
  ASSERT_GE(r.size(), 10u);
  // First bucket averages 0..9 = 4.5.
  EXPECT_NEAR(r[0].value, 4.5, 1e-12);
  EXPECT_NEAR(r[1].value, 14.5, 1e-12);
}

TEST(TimeSeries, ResampleInvalidIntervalThrows) {
  const TimeSeries ts = ramp(4);
  EXPECT_THROW(ts.resample(Duration::seconds(0.0)), InvalidArgument);
}

TEST(TimeSeries, SummaryStatistics) {
  const TimeSeries ts = ramp(101);
  const Summary s = ts.summary();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(TimeSeries, OnlineAggregatesMatchDirectComputation) {
  TimeSeries ts("kW");
  double naive_sum = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double v = 3000.0 + 100.0 * std::sin(0.1 * i);
    ts.append(SimTime(60.0 * i), v);
    naive_sum += v;
  }
  EXPECT_EQ(ts.size(), 500u);
  EXPECT_NEAR(ts.value_sum(), naive_sum, 1e-6);
  EXPECT_NEAR(ts.mean(), naive_sum / 500.0, 1e-9);
  EXPECT_LE(ts.value_min(), ts.value_max());
  EXPECT_GE(ts.value_min(), 2900.0);
  EXPECT_LE(ts.value_max(), 3100.0);
}

TEST(TimeSeries, WindowBoundsBinarySearch) {
  TimeSeries ts("kW");
  for (int i = 0; i < 10; ++i) {
    ts.append(SimTime(10.0 * i), static_cast<double>(i));
  }
  // Half-open [first, last): start inclusive, end exclusive.
  const auto [a, b] = ts.window_bounds(SimTime(20.0), SimTime(50.0));
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 5u);
  // Window boundaries between samples round inward.
  const auto [c, d] = ts.window_bounds(SimTime(15.0), SimTime(45.0));
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(d, 5u);
  // Empty and out-of-range windows.
  const auto [e, f] = ts.window_bounds(SimTime(200.0), SimTime(300.0));
  EXPECT_EQ(e, f);
}

TEST(TimeSeries, EqualTimestampsAllowed) {
  // Non-decreasing, not strictly increasing: repeated timestamps are fine
  // (zero-width trapezoid contributes nothing).
  TimeSeries ts("kW");
  ts.append(SimTime(0.0), 1.0);
  ts.append(SimTime(0.0), 3.0);
  ts.append(SimTime(1.0), 3.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.integrate(), 3.0);
}

}  // namespace
}  // namespace hpcem
