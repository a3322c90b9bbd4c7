// Tests for the node power-capping model.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/power_cap.hpp"

namespace hpcem {
namespace {

class PowerCapTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);
  const ApplicationModel& vasp_ = cat_.at("VASP (production)");
  const ApplicationModel& lammps_ = cat_.at("LAMMPS (production)");
};

TEST_F(PowerCapTest, GenerousCapDoesNotThrottle) {
  const auto point = apply_power_cap(vasp_, Power::watts(600.0));
  EXPECT_FALSE(point.throttled);
  EXPECT_NEAR(point.effective.to_ghz(), 2.8, 1e-9);
  EXPECT_NEAR(point.time_factor, 1.0, 1e-9);
  EXPECT_NEAR(point.node_power.w(), vasp_.spec().loaded_node_w.w(), 1e-6);
}

TEST_F(PowerCapTest, BindingCapSettlesExactlyAtTheCap) {
  const Power cap = Power::watts(400.0);
  const auto point = apply_power_cap(vasp_, cap);
  EXPECT_TRUE(point.throttled);
  EXPECT_NEAR(point.node_power.w(), 400.0, 0.5);
  EXPECT_LT(point.effective.to_ghz(), 2.8);
  EXPECT_GT(point.effective.to_ghz(), kMinThrottleGhz);
  EXPECT_GT(point.time_factor, 1.0);
}

TEST_F(PowerCapTest, TighterCapsThrottleHarder) {
  double prev_f = 10.0;
  double prev_t = 0.0;
  for (double cap_w : {450.0, 420.0, 390.0, 360.0}) {
    const auto p = apply_power_cap(vasp_, Power::watts(cap_w));
    EXPECT_LT(p.effective.to_ghz(), prev_f);
    EXPECT_GT(p.time_factor, prev_t);
    prev_f = p.effective.to_ghz();
    prev_t = p.time_factor;
  }
}

TEST_F(PowerCapTest, UnreachableCapBottomsOutAtTheFloor) {
  // Idle + uncore power cannot be capped away: a 100 W cap is unreachable.
  const auto p = apply_power_cap(vasp_, Power::watts(100.0));
  EXPECT_TRUE(p.throttled);
  EXPECT_NEAR(p.effective.to_ghz(), kMinThrottleGhz, 1e-9);
  EXPECT_GT(p.node_power.w(), 100.0);
  EXPECT_THROW(apply_power_cap(vasp_, Power::watts(0.0)), InvalidArgument);
}

TEST_F(PowerCapTest, CapCostsClockSensitiveHotCodesMost) {
  // The structural contrast with the frequency lever: under a uniform cap
  // the hot compute-dense code (LAMMPS) sheds far more power — and, being
  // clock-sensitive, pays far more runtime — than the cooler code (VASP).
  // (The *clocks* land close together: a steep f·V² curve sheds watts per
  // MHz quickly, so equal draw does not mean equal frequency.)
  const Power cap = Power::watts(400.0);
  const auto vasp = apply_power_cap(vasp_, cap);
  const auto lammps = apply_power_cap(lammps_, cap);
  ASSERT_TRUE(vasp.throttled);
  ASSERT_TRUE(lammps.throttled);
  EXPECT_GT(lammps_.spec().loaded_node_w, vasp_.spec().loaded_node_w);
  EXPECT_GT(lammps.time_factor, vasp.time_factor + 0.05);
}

TEST_F(PowerCapTest, CapForTargetDrawInvertsTheMean) {
  const Power target = Power::watts(400.0);
  const auto cap = cap_for_target_draw(cat_, target);
  ASSERT_TRUE(cap.has_value());
  const double achieved = cat_.mix_average([&](const ApplicationModel& a) {
    return apply_power_cap(a, *cap).node_power.w();
  });
  EXPECT_NEAR(achieved, 400.0, 2.0);
}

TEST_F(PowerCapTest, ImpossibleTargetReturnsNullopt) {
  EXPECT_FALSE(cap_for_target_draw(cat_, Power::watts(250.0)).has_value());
  EXPECT_THROW(cap_for_target_draw(cat_, Power::watts(0.0)),
               InvalidArgument);
}

TEST_F(PowerCapTest, ComparisonRowsCoverTheMix) {
  const auto rows = compare_cap_vs_frequency(cat_, Power::watts(380.0));
  EXPECT_EQ(rows.size(), cat_.production_mix().size());
  for (const auto& r : rows) {
    EXPECT_GE(r.cap_time_factor, 1.0);
    EXPECT_GE(r.freq_time_factor, 1.0);
    EXPECT_LE(r.cap_node_w.w(), 380.5);
    EXPECT_GT(r.freq_node_w.w(), 230.0);
  }
}

TEST_F(PowerCapTest, MatchedDrawDifferentVictims) {
  // At a cap matched to the 2.0 GHz fleet draw, the worst-hit app under
  // the cap (hottest) differs from the worst-hit under the frequency
  // default (most clock-sensitive among non-reverted)... at minimum, the
  // per-app orderings must differ somewhere.
  const double freq_mean = cat_.mix_average([](const ApplicationModel& a) {
    return a.node_draw(DeterminismMode::kPerformanceDeterminism,
                       pstates::kMid)
        .w();
  });
  const auto cap = cap_for_target_draw(cat_, Power::watts(freq_mean));
  ASSERT_TRUE(cap.has_value());
  const auto rows = compare_cap_vs_frequency(cat_, *cap);
  bool cap_worse_somewhere = false;
  bool freq_worse_somewhere = false;
  for (const auto& r : rows) {
    if (r.cap_time_factor > r.freq_time_factor + 0.01) {
      cap_worse_somewhere = true;
    }
    if (r.freq_time_factor > r.cap_time_factor + 0.01) {
      freq_worse_somewhere = true;
    }
  }
  EXPECT_TRUE(cap_worse_somewhere);
  EXPECT_TRUE(freq_worse_somewhere);
}

}  // namespace
}  // namespace hpcem
