// Unit and property tests for the node power model and its calibration.
#include <gtest/gtest.h>

#include "power/node_model.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

NodeActivity loaded_activity(PState ps, DeterminismMode mode) {
  NodeActivity a;
  a.load = 1.0;
  a.pstate = ps;
  a.mode = mode;
  return a;
}

TEST(Calibration, ReproducesTargets) {
  const NodePowerParams params;
  const Power target = Power::watts(470.0);
  const double rho = 0.80;
  const auto profile = calibrate_dynamic_profile(params, target, rho,
                                                 Frequency::ghz(2.8));
  EXPECT_GE(profile.core_w.w(), 0.0);
  EXPECT_GE(profile.uncore_w.w(), 0.0);

  // Loaded at boost, performance determinism: must hit the target.
  const Power at_boost = node_power(
      params, profile,
      loaded_activity(pstates::kHighTurbo,
                      DeterminismMode::kPerformanceDeterminism));
  EXPECT_NEAR(at_boost.w(), 470.0, 1e-9);

  // Loaded at 2.0 GHz: must hit rho * target.
  const Power at_2ghz = node_power(
      params, profile,
      loaded_activity(pstates::kMid,
                      DeterminismMode::kPerformanceDeterminism));
  EXPECT_NEAR(at_2ghz.w(), 0.80 * 470.0, 1e-9);
}

TEST(Calibration, InfeasibleTargetsThrow) {
  const NodePowerParams params;
  // rho = 0.5 at 470 W would need uncore < 0 with a 230 W idle floor.
  EXPECT_THROW(calibrate_dynamic_profile(params, Power::watts(470.0), 0.5,
                                         Frequency::ghz(2.8)),
               InvalidArgument);
  // Loaded below idle is nonsense.
  EXPECT_THROW(calibrate_dynamic_profile(params, Power::watts(200.0), 0.8,
                                         Frequency::ghz(2.8)),
               InvalidArgument);
  // Boost at or below 2.0 GHz cannot define the ratio.
  EXPECT_THROW(calibrate_dynamic_profile(params, Power::watts(470.0), 0.8,
                                         Frequency::ghz(2.0)),
               InvalidArgument);
}

TEST(Calibration, MinFeasibleBoundIsTight) {
  const NodePowerParams params;
  const double rho = 0.64;  // the Nektar++ case, the tightest in the paper
  const Power min_l =
      min_feasible_loaded_power(params, rho, Frequency::ghz(2.8));
  EXPECT_GT(min_l.w(), 500.0);
  // Just above the bound calibrates; just below throws.
  EXPECT_NO_THROW(calibrate_dynamic_profile(
      params, Power::watts(min_l.w() + 1.0), rho, Frequency::ghz(2.8)));
  EXPECT_THROW(calibrate_dynamic_profile(params,
                                         Power::watts(min_l.w() - 1.0), rho,
                                         Frequency::ghz(2.8)),
               InvalidArgument);
}

TEST(NodePower, IdleEquals230W) {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.8, Frequency::ghz(2.8));
  NodeActivity idle;
  idle.load = 0.0;
  EXPECT_DOUBLE_EQ(node_power(params, profile, idle).w(), 230.0);
}

TEST(NodePower, LoadInterpolatesLinearly) {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.8, Frequency::ghz(2.8));
  NodeActivity half = loaded_activity(
      pstates::kHighTurbo, DeterminismMode::kPerformanceDeterminism);
  half.load = 0.5;
  EXPECT_NEAR(node_power(params, profile, half).w(), 230.0 + 120.0, 1e-9);
}

TEST(NodePower, PowerDeterminismDrawsMore) {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.8, Frequency::ghz(2.8));
  const Power pd = node_power(
      params, profile,
      loaded_activity(pstates::kHighTurbo,
                      DeterminismMode::kPerformanceDeterminism));
  const Power wd = node_power(
      params, profile,
      loaded_activity(pstates::kHighTurbo,
                      DeterminismMode::kPowerDeterminism));
  EXPECT_GT(wd.w(), pd.w());
  // The uplift acts on the core share only; the delta must be bounded by
  // core_w * phi * uplift-ish terms, i.e. well under 2x.
  EXPECT_LT(wd.w(), pd.w() * 1.25);
}

TEST(NodePower, SiliconFactorScalesTheUplift) {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.8, Frequency::ghz(2.8));
  NodeActivity good = loaded_activity(pstates::kHighTurbo,
                                      DeterminismMode::kPowerDeterminism);
  good.silicon_factor = 1.5;
  NodeActivity poor = good;
  poor.silicon_factor = 0.5;
  EXPECT_GT(node_power(params, profile, good).w(),
            node_power(params, profile, poor).w());

  // Under performance determinism silicon quality is clamped away.
  good.mode = DeterminismMode::kPerformanceDeterminism;
  poor.mode = DeterminismMode::kPerformanceDeterminism;
  EXPECT_DOUBLE_EQ(node_power(params, profile, good).w(),
                   node_power(params, profile, poor).w());
}

TEST(NodePower, InvalidActivityThrows) {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.8, Frequency::ghz(2.8));
  NodeActivity bad;
  bad.load = 1.5;
  EXPECT_THROW(node_power(params, profile, bad), InvalidArgument);
  bad.load = 1.0;
  bad.silicon_factor = -1.0;
  EXPECT_THROW(node_power(params, profile, bad), InvalidArgument);
  bad.silicon_factor = 1.0;
  bad.pstate = {Frequency::ghz(9.9), false};
  EXPECT_THROW(node_power(params, profile, bad), InvalidArgument);
}

// Property sweep over calibration space: any feasible (L, rho) pair must
// produce a model whose power is monotone in frequency and bounded by the
// loaded target.
struct CalibCase {
  double loaded_w;
  double rho;
};

class CalibrationSweep : public ::testing::TestWithParam<CalibCase> {};

TEST_P(CalibrationSweep, MonotoneInFrequencyAndExactAtAnchors) {
  const NodePowerParams params;
  const CalibCase c = GetParam();
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(c.loaded_w), c.rho, Frequency::ghz(2.8));

  const auto power_at = [&](PState ps) {
    return node_power(params, profile,
                      loaded_activity(
                          ps, DeterminismMode::kPerformanceDeterminism))
        .w();
  };
  const double p_low = power_at(pstates::kLow);
  const double p_mid = power_at(pstates::kMid);
  const double p_high = power_at(pstates::kHighNoTurbo);
  const double p_turbo = power_at(pstates::kHighTurbo);
  EXPECT_LT(p_low, p_mid);
  EXPECT_LT(p_mid, p_high);
  EXPECT_LT(p_high, p_turbo);
  EXPECT_NEAR(p_turbo, c.loaded_w, 1e-9);
  EXPECT_NEAR(p_mid, c.rho * c.loaded_w, 1e-9);
  EXPECT_GT(p_low, params.idle.w());
}

INSTANTIATE_TEST_SUITE_P(
    FeasibleSpace, CalibrationSweep,
    ::testing::Values(CalibCase{450.0, 0.82}, CalibCase{470.0, 0.80},
                      CalibCase{510.0, 0.68}, CalibCase{570.0, 0.64},
                      CalibCase{460.0, 0.85}, CalibCase{500.0, 0.75},
                      CalibCase{440.0, 0.90}, CalibCase{620.0, 0.62}));

}  // namespace
}  // namespace hpcem
