// Tests for the per-node silicon fleet model.
#include <gtest/gtest.h>

#include "power/fleet.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

DynamicPowerProfile default_profile(const NodePowerParams& np) {
  return calibrate_dynamic_profile(np, Power::watts(470.0), 0.80,
                                   Frequency::ghz(2.8));
}

std::vector<double> silicon_of(const NodeFleet& fleet) {
  std::vector<double> out;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    out.push_back(fleet.silicon_factor(i));
  }
  return out;
}

NodeActivity loaded(DeterminismMode mode) {
  NodeActivity a;
  a.load = 1.0;
  a.mode = mode;
  a.power_det_uplift = 0.20;
  return a;
}

TEST(Fleet, SiliconDistributionShape) {
  const NodeFleet fleet(FleetParams{}, 11);
  EXPECT_EQ(fleet.size(), 5860u);
  const Summary s = summarize(silicon_of(fleet));
  EXPECT_NEAR(s.mean, 1.0, 0.02);
  EXPECT_NEAR(s.stddev, 0.25, 0.03);
  EXPECT_GE(s.min, 0.5);
  EXPECT_LE(s.max, 1.5);
}

TEST(Fleet, DeterministicForSeed) {
  const NodeFleet a(FleetParams{}, 42);
  const NodeFleet b(FleetParams{}, 42);
  for (std::size_t i = 0; i < a.size(); i += 391) {
    ASSERT_DOUBLE_EQ(a.silicon_factor(i), b.silicon_factor(i));
  }
  const NodeFleet c(FleetParams{}, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.silicon_factor(i) != c.silicon_factor(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Fleet, PerformanceDeterminismCollapsesThePowerSpread) {
  // The mechanism behind Table 3: under power determinism node power
  // varies with silicon quality; under performance determinism the spread
  // collapses and the mean drops.
  const NodePowerParams np;
  const auto profile = default_profile(np);
  const NodeFleet fleet(FleetParams{}, 7);

  const Summary wd = fleet.power_summary(
      np, profile, loaded(DeterminismMode::kPowerDeterminism));
  const Summary pd = fleet.power_summary(
      np, profile, loaded(DeterminismMode::kPerformanceDeterminism));

  EXPECT_GT(wd.stddev, 5.0);           // real part-to-part spread
  EXPECT_NEAR(pd.stddev, 0.0, 1e-9);   // clamped to the reference part
  EXPECT_GT(wd.mean, pd.mean);         // and the mean drops
  EXPECT_NEAR(pd.mean, 470.0, 1e-6);   // to the calibrated loaded draw
}

TEST(Fleet, FleetSavingMatchesMeanUplift) {
  const NodePowerParams np;
  const auto profile = default_profile(np);
  const NodeFleet fleet(FleetParams{}, 13);
  const Power wd = fleet.total_power(
      np, profile, loaded(DeterminismMode::kPowerDeterminism));
  const Power pd = fleet.total_power(
      np, profile, loaded(DeterminismMode::kPerformanceDeterminism));
  // Saving per node: the extra boost clock (phi > 1) plus the uplift both
  // disappear under performance determinism:
  //   delta = core_w * (phi * (1 + uplift * mean_silicon) - 1).
  const double phi = dvfs_factor(np.cpu, Frequency::ghz(2.8 * 1.01),
                                 Frequency::ghz(2.8));
  const double expected_per_node =
      profile.core_w.w() * (phi * (1.0 + 0.20) - 1.0);
  EXPECT_NEAR((wd - pd).w() / 5860.0, expected_per_node,
              expected_per_node * 0.05);
}

TEST(Fleet, ValidationErrors) {
  FleetParams bad;
  bad.node_count = 0;
  EXPECT_THROW(NodeFleet(bad, 1), InvalidArgument);
  bad = {};
  bad.silicon_sigma = -0.1;
  EXPECT_THROW(NodeFleet(bad, 1), InvalidArgument);
  bad = {};
  bad.silicon_min = 2.0;
  bad.silicon_max = 1.0;
  EXPECT_THROW(NodeFleet(bad, 1), InvalidArgument);
  const NodeFleet fleet(FleetParams{}, 1);
  EXPECT_THROW(fleet.silicon_factor(999999), InvalidArgument);
}

TEST(Fleet, BatchedPowersMatchScalarNodePowerExactly) {
  // The fleet evaluation must be a pure hoist: the fleet total and the
  // power distribution reproduce a per-node node_power() loop bit-for-bit.
  const NodePowerParams np;
  const auto profile = default_profile(np);
  FleetParams p;
  p.node_count = 257;
  const NodeFleet fleet(p, 29);
  const NodeActivity act = loaded(DeterminismMode::kPowerDeterminism);

  std::vector<double> scalar;
  double manual_total = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    NodeActivity per_node = act;
    per_node.silicon_factor = fleet.silicon_factor(i);
    scalar.push_back(node_power(np, profile, per_node).w());
    manual_total += scalar.back();
  }
  EXPECT_EQ(fleet.total_power(np, profile, act).w(), manual_total);
  const Summary batched = fleet.power_summary(np, profile, act);
  const Summary expected = summarize(scalar);
  EXPECT_EQ(batched.mean, expected.mean);
  EXPECT_EQ(batched.min, expected.min);
  EXPECT_EQ(batched.max, expected.max);
}

TEST(Fleet, ZeroSigmaFleetIsUniform) {
  FleetParams p;
  p.node_count = 100;
  p.silicon_sigma = 0.0;
  const NodeFleet fleet(p, 5);
  const Summary s = summarize(silicon_of(fleet));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
}

}  // namespace
}  // namespace hpcem
