// Unit and property tests for the application roofline/power model.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/app_model.hpp"

namespace hpcem {
namespace {

ApplicationSpec basic_spec() {
  ApplicationSpec s;
  s.name = "test-app";
  s.beta = 0.5;
  s.loaded_node_w = Power::watts(490.0);
  s.power_ratio_2ghz = 0.74;
  return s;
}

TEST(AppModel, ConstructionValidatesSpec) {
  const NodePowerParams np;
  ApplicationSpec s = basic_spec();
  s.beta = 1.5;
  EXPECT_THROW(ApplicationModel(s, np), InvalidArgument);
  s = basic_spec();
  s.comm_fraction = 0.6;  // 0.5 beta + 0.6 comm > 1
  EXPECT_THROW(ApplicationModel(s, np), InvalidArgument);
  s = basic_spec();
  s.power_det_uplift = -0.1;
  EXPECT_THROW(ApplicationModel(s, np), InvalidArgument);
  s = basic_spec();
  s.mix_weight = -1.0;
  EXPECT_THROW(ApplicationModel(s, np), InvalidArgument);
}

TEST(AppModel, TimeFactorUnityAtReference) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  EXPECT_DOUBLE_EQ(
      app.time_factor(DeterminismMode::kPerformanceDeterminism,
                      pstates::kHighTurbo),
      1.0);
}

TEST(AppModel, TimeFactorMatchesRoofline) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  // beta = 0.5, f 2.8 -> 2.0: factor = 0.5 + 0.5 * 1.4 = 1.2.
  EXPECT_NEAR(app.time_factor(DeterminismMode::kPerformanceDeterminism,
                              pstates::kMid),
              1.2, 1e-12);
  // 1.5 GHz: 0.5 + 0.5 * (2.8/1.5).
  EXPECT_NEAR(app.time_factor(DeterminismMode::kPerformanceDeterminism,
                              pstates::kLow),
              0.5 + 0.5 * (2.8 / 1.5), 1e-12);
}

TEST(AppModel, PowerDeterminismRunsSlightlyFaster) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  const double t_wd = app.time_factor(DeterminismMode::kPowerDeterminism,
                                      pstates::kHighTurbo);
  EXPECT_LT(t_wd, 1.0);
  EXPECT_GT(t_wd, 0.99);  // <= 1% effect (paper Table 3)
}

TEST(AppModel, RuntimeScalesReference) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  const Duration t = app.runtime(Duration::hours(10.0),
                                 DeterminismMode::kPerformanceDeterminism,
                                 pstates::kMid);
  EXPECT_NEAR(t.hrs(), 12.0, 1e-9);
  EXPECT_THROW(app.runtime(Duration::hours(0.0),
                           DeterminismMode::kPerformanceDeterminism,
                           pstates::kMid),
               InvalidArgument);
}

TEST(AppModel, PerfRatioIsInverseTimeRatio) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  const double r = app.perf_ratio(
      DeterminismMode::kPerformanceDeterminism, pstates::kMid,
      DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo);
  EXPECT_NEAR(r, 1.0 / 1.2, 1e-12);
}

TEST(AppModel, ExpectedSlowdownAtReferenceIsZero) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  EXPECT_NEAR(app.expected_slowdown(
                  DeterminismMode::kPerformanceDeterminism,
                  pstates::kHighTurbo),
              0.0, 1e-12);
  EXPECT_NEAR(app.expected_slowdown(
                  DeterminismMode::kPerformanceDeterminism, pstates::kMid),
              0.2, 1e-12);
}

TEST(AppModel, NodeDrawHitsCalibrationAnchors) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  EXPECT_NEAR(app.node_draw(DeterminismMode::kPerformanceDeterminism,
                            pstates::kHighTurbo)
                  .w(),
              490.0, 1e-9);
  EXPECT_NEAR(app.node_draw(DeterminismMode::kPerformanceDeterminism,
                            pstates::kMid)
                  .w(),
              0.74 * 490.0, 1e-9);
}

TEST(AppModel, JobEnergyScalesWithNodesAndTime) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  const Energy one = app.job_energy(
      1, Duration::hours(1.0), DeterminismMode::kPerformanceDeterminism,
      pstates::kHighTurbo);
  const Energy four = app.job_energy(
      4, Duration::hours(1.0), DeterminismMode::kPerformanceDeterminism,
      pstates::kHighTurbo);
  EXPECT_NEAR(four.to_kwh(), 4.0 * one.to_kwh(), 1e-9);
  EXPECT_NEAR(one.to_kwh(), 0.490, 1e-6);
  EXPECT_THROW(app.job_energy(0, Duration::hours(1.0),
                              DeterminismMode::kPerformanceDeterminism,
                              pstates::kHighTurbo),
               InvalidArgument);
}

TEST(AppModel, EnergyRatioComposesPowerAndTime) {
  const NodePowerParams np;
  const ApplicationModel app(basic_spec(), np);
  const double e = app.energy_ratio(
      DeterminismMode::kPerformanceDeterminism, pstates::kMid,
      DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo);
  // E ratio = P ratio * T ratio = 0.74 * 1.2.
  EXPECT_NEAR(e, 0.74 * 1.2, 1e-9);
}

TEST(BetaInversion, RoundTripsThroughTimeFactor) {
  for (double perf : {0.74, 0.80, 0.83, 0.91, 0.92, 0.93, 0.95}) {
    const double beta = beta_from_perf_ratio(perf, Frequency::ghz(2.8));
    ASSERT_GE(beta, 0.0);
    ASSERT_LE(beta, 1.0);
    const double factor = (1.0 - beta) + beta * (2.8 / 2.0);
    EXPECT_NEAR(1.0 / factor, perf, 1e-12);
  }
}

TEST(BetaInversion, InvalidInputsThrow) {
  EXPECT_THROW(beta_from_perf_ratio(0.0, Frequency::ghz(2.8)),
               InvalidArgument);
  EXPECT_THROW(beta_from_perf_ratio(1.1, Frequency::ghz(2.8)),
               InvalidArgument);
  EXPECT_THROW(beta_from_perf_ratio(0.9, Frequency::ghz(1.9)),
               InvalidArgument);
  // A 0.5 perf ratio would need beta > 1 with a 2.8 GHz boost.
  EXPECT_THROW(beta_from_perf_ratio(0.5, Frequency::ghz(2.8)),
               InvalidArgument);
}

TEST(UpliftCalibration, ReproducesTargetEnergyRatio) {
  const NodePowerParams np;
  ApplicationSpec s = basic_spec();
  s.power_det_uplift = calibrate_power_det_uplift(s, np, 0.92);
  const ApplicationModel app(s, np);
  const double e = app.energy_ratio(
      DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo,
      DeterminismMode::kPowerDeterminism, pstates::kHighTurbo);
  EXPECT_NEAR(e, 0.92, 1e-9);
}

TEST(UpliftCalibration, ImpossibleTargetThrows) {
  const NodePowerParams np;
  const ApplicationSpec s = basic_spec();
  // Energy ratio ~1 implies performance determinism saves nothing: the
  // required uplift would be negative.
  EXPECT_THROW(calibrate_power_det_uplift(s, np, 1.0), InvalidArgument);
  EXPECT_THROW(calibrate_power_det_uplift(s, np, 0.0), InvalidArgument);
}

TEST(ScienceArea, Labels) {
  EXPECT_EQ(to_string(ScienceArea::kMaterials), "materials science");
  EXPECT_EQ(to_string(ScienceArea::kClimateOcean),
            "climate/ocean modelling");
  EXPECT_EQ(to_string(ScienceArea::kPlasma), "plasma physics");
}

// Property sweep: for every beta, lowering frequency must never speed the
// app up, and the 2.0 GHz energy ratio must compose power and time ratios.
class BetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(BetaSweep, MonotonicityAndEnergyLogic) {
  const NodePowerParams np;
  ApplicationSpec s = basic_spec();
  s.beta = GetParam();
  s.power_ratio_2ghz = 0.80;
  s.loaded_node_w = Power::watts(520.0);
  s.comm_fraction = 0.0;
  const ApplicationModel app(s, np);
  const auto mode = DeterminismMode::kPerformanceDeterminism;
  EXPECT_LE(app.time_factor(mode, pstates::kHighTurbo),
            app.time_factor(mode, pstates::kHighNoTurbo));
  EXPECT_LE(app.time_factor(mode, pstates::kHighNoTurbo),
            app.time_factor(mode, pstates::kMid));
  EXPECT_LE(app.time_factor(mode, pstates::kMid),
            app.time_factor(mode, pstates::kLow));

  const double t_ratio = app.time_factor(mode, pstates::kMid);
  const double e_ratio = app.energy_ratio(mode, pstates::kMid, mode,
                                          pstates::kHighTurbo);
  EXPECT_NEAR(e_ratio, 0.80 * t_ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace hpcem
