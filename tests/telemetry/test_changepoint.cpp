// Unit and property tests for step-change detection.
#include <gtest/gtest.h>

#include <vector>

#include "telemetry/changepoint.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

std::vector<double> step_series(std::size_t n, std::size_t change,
                                double before, double after, double noise,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = (i < change ? before : after) + rng.normal(0.0, noise);
  }
  return xs;
}

TEST(SingleStep, ExactNoiselessStep) {
  const auto xs = step_series(100, 60, 3220.0, 3010.0, 0.0, 1);
  const auto sc = detect_single_step(xs, 8);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->index, 60u);
  EXPECT_DOUBLE_EQ(sc->mean_before, 3220.0);
  EXPECT_DOUBLE_EQ(sc->mean_after, 3010.0);
  EXPECT_DOUBLE_EQ(sc->delta(), -210.0);
  EXPECT_GT(sc->gain, 0.0);
}

TEST(SingleStep, NoisyStepRecoversLocationAndMeans) {
  const auto xs = step_series(2000, 1200, 3220.0, 3010.0, 25.0, 2);
  const auto sc = detect_single_step(xs, 8);
  ASSERT_TRUE(sc.has_value());
  EXPECT_NEAR(static_cast<double>(sc->index), 1200.0, 10.0);
  EXPECT_NEAR(sc->mean_before, 3220.0, 5.0);
  EXPECT_NEAR(sc->mean_after, 3010.0, 5.0);
}

TEST(SingleStep, TooShortSeriesReturnsNull) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_FALSE(detect_single_step(xs, 8).has_value());
}

TEST(SingleStep, ConstantSeriesHasNoGain) {
  const std::vector<double> xs(100, 5.0);
  const auto sc = detect_single_step(xs, 8);
  EXPECT_FALSE(sc.has_value());
}

TEST(SingleStep, MinSegmentRespected) {
  // Step at index 4 cannot be found with min_segment 8.
  const auto xs = step_series(100, 4, 10.0, 0.0, 0.0, 3);
  const auto sc = detect_single_step(xs, 8);
  if (sc) {
    EXPECT_GE(sc->index, 8u);
    EXPECT_LE(sc->index, xs.size() - 8);
  }
}

TEST(SingleStep, OnTimeSeriesReportsTimestamp) {
  TimeSeries ts("kW");
  for (std::size_t i = 0; i < 100; ++i) {
    ts.append(SimTime(1000.0 + static_cast<double>(i) * 10.0),
              i < 40 ? 100.0 : 50.0);
  }
  const auto sc = detect_single_step(ts, 8);
  ASSERT_TRUE(sc.has_value());
  EXPECT_DOUBLE_EQ(sc->time.sec(), 1400.0);
  EXPECT_DOUBLE_EQ(sc->mean_before, 100.0);
  EXPECT_DOUBLE_EQ(sc->mean_after, 50.0);
}

// Property sweep: the detector must localise steps of varying position and
// magnitude under realistic noise.
struct StepCase {
  std::size_t change;
  double magnitude;
};

class SingleStepSweep : public ::testing::TestWithParam<StepCase> {};

TEST_P(SingleStepSweep, LocalisesWithinTolerance) {
  const StepCase c = GetParam();
  const auto xs =
      step_series(1000, c.change, 3000.0, 3000.0 - c.magnitude, 20.0, 7);
  const auto sc = detect_single_step(xs, 8);
  ASSERT_TRUE(sc.has_value());
  EXPECT_NEAR(static_cast<double>(sc->index),
              static_cast<double>(c.change), 20.0);
  EXPECT_NEAR(sc->mean_before - sc->mean_after, c.magnitude, 15.0);
}

INSTANTIATE_TEST_SUITE_P(
    PositionsAndMagnitudes, SingleStepSweep,
    ::testing::Values(StepCase{200, 100.0}, StepCase{500, 100.0},
                      StepCase{800, 100.0}, StepCase{500, 200.0},
                      StepCase{500, 480.0}, StepCase{300, 210.0}));

TEST(MultiStep, FindsBothPaperChanges) {
  // The full campaign shape: 3220 -> 3010 -> 2530.
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back(3220.0 + rng.normal(0.0, 25.0));
  for (int i = 0; i < 600; ++i) xs.push_back(3010.0 + rng.normal(0.0, 25.0));
  for (int i = 0; i < 600; ++i) xs.push_back(2530.0 + rng.normal(0.0, 25.0));
  const auto steps = detect_steps(xs, 48, 3.0);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_NEAR(static_cast<double>(steps[0].index), 600.0, 30.0);
  EXPECT_NEAR(static_cast<double>(steps[1].index), 1200.0, 30.0);
}

TEST(MultiStep, PureNoiseYieldsNoSteps) {
  Rng rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(3000.0 + rng.normal(0.0, 30.0));
  }
  const auto steps = detect_steps(xs, 16, 3.0);
  EXPECT_TRUE(steps.empty());
}

TEST(MultiStep, HigherPenaltyFindsFewerSteps) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(100.0 + rng.normal(0.0, 5.0));
  for (int i = 0; i < 300; ++i) xs.push_back(92.0 + rng.normal(0.0, 5.0));
  const auto loose = detect_steps(xs, 16, 1.0);
  const auto strict = detect_steps(xs, 16, 500.0);
  EXPECT_GE(loose.size(), strict.size());
}

TEST(MultiStep, ResultsSortedByIndex) {
  const auto xs = step_series(900, 450, 10.0, 0.0, 0.5, 14);
  const auto steps = detect_steps(xs, 16, 2.0);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LT(steps[i - 1].index, steps[i].index);
  }
}

}  // namespace
}  // namespace hpcem
