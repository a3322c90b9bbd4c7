// Tests for the compiler/toolchain energy study.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/catalog.hpp"
#include "workload/toolchain.hpp"

namespace hpcem {
namespace {

class ToolchainTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);
  const ApplicationModel& base_ = cat_.at("CASTEP Al Slab");
  static constexpr auto kMode = DeterminismMode::kPerformanceDeterminism;
};

TEST_F(ToolchainTest, ReferenceToolchainIsIdentity) {
  const ToolchainedApplication ref(base_, toolchains::reference());
  const Duration unit = Duration::hours(1.0);
  EXPECT_NEAR(ref.runtime(unit, kMode, pstates::kHighTurbo).hrs(),
              base_.runtime(unit, kMode, pstates::kHighTurbo).hrs(), 1e-9);
  EXPECT_NEAR(
      ref.energy_to_solution(1, unit, kMode, pstates::kHighTurbo).to_kwh(),
      base_.job_energy(1, unit, kMode, pstates::kHighTurbo).to_kwh(), 1e-9);
}

TEST_F(ToolchainTest, VendorBuildIsFasterAndSavesEnergy) {
  const ToolchainedApplication tuned(base_, toolchains::vendor_tuned());
  const Duration unit = Duration::hours(1.0);
  // Faster wall clock despite hotter cores...
  EXPECT_LT(tuned.runtime(unit, kMode, pstates::kHighTurbo).hrs(),
            base_.runtime(unit, kMode, pstates::kHighTurbo).hrs());
  // ...and lower energy-to-solution (runtime wins over power density).
  EXPECT_LT(
      tuned.energy_to_solution(1, unit, kMode, pstates::kHighTurbo).j(),
      base_.job_energy(1, unit, kMode, pstates::kHighTurbo).j());
  // But it draws more power while running.
  EXPECT_GT(tuned.model().node_draw(kMode, pstates::kHighTurbo).w(),
            base_.node_draw(kMode, pstates::kHighTurbo).w());
}

TEST_F(ToolchainTest, UnoptimisedBuildWastesEnergyDespiteCoolCores) {
  const ToolchainedApplication slow(base_, toolchains::unoptimised());
  const Duration unit = Duration::hours(1.0);
  EXPECT_LT(slow.model().node_draw(kMode, pstates::kHighTurbo).w(),
            base_.node_draw(kMode, pstates::kHighTurbo).w());
  EXPECT_GT(
      slow.energy_to_solution(1, unit, kMode, pstates::kHighTurbo).j(),
      base_.job_energy(1, unit, kMode, pstates::kHighTurbo).j() * 1.3);
}

TEST_F(ToolchainTest, VectorisedBuildsAreMoreClockSensitive) {
  // The future-work question: does the best frequency depend on the build?
  // A vendor-tuned build has higher beta, so its 2.0 GHz perf ratio is
  // worse than the portable build's.
  const ToolchainedApplication tuned(base_, toolchains::vendor_tuned());
  const ToolchainedApplication portable(base_, toolchains::portable_o2());
  const double perf_tuned = tuned.model().perf_ratio(
      kMode, pstates::kMid, kMode, pstates::kHighTurbo);
  const double perf_portable = portable.model().perf_ratio(
      kMode, pstates::kMid, kMode, pstates::kHighTurbo);
  EXPECT_LT(perf_tuned, perf_portable);
}

TEST_F(ToolchainTest, StudyMatrixShape) {
  const auto matrix = toolchain_frequency_study(base_);
  // 4 toolchains x 3 P-states.
  ASSERT_EQ(matrix.size(), 12u);
  // The reference/turbo cell is the (1, 1) anchor.
  bool found_anchor = false;
  for (const auto& p : matrix) {
    if (p.toolchain == toolchains::reference().name &&
        p.pstate == pstates::kHighTurbo) {
      EXPECT_NEAR(p.runtime_ratio, 1.0, 1e-9);
      EXPECT_NEAR(p.energy_ratio, 1.0, 1e-9);
      found_anchor = true;
    }
    EXPECT_GT(p.runtime_ratio, 0.0);
    EXPECT_GT(p.energy_ratio, 0.0);
    EXPECT_GT(p.node_power_w.w(), 230.0);
  }
  EXPECT_TRUE(found_anchor);
}

TEST_F(ToolchainTest, BestCellBeatsReferenceSubstantially) {
  // Vendor build at 2.0 GHz should be the sweet spot for a memory-bound
  // code: faster AND much lower energy than reference/turbo.
  const auto matrix = toolchain_frequency_study(base_);
  double best_energy = 1e9;
  for (const auto& p : matrix) {
    if (p.toolchain == toolchains::vendor_tuned().name &&
        p.pstate == pstates::kMid) {
      best_energy = p.energy_ratio;
    }
  }
  EXPECT_LT(best_energy, 0.85);
}

TEST_F(ToolchainTest, BetaShiftClampedToFeasibleRange) {
  // A huge positive shift must clamp at 1 - comm_fraction, not throw.
  Toolchain extreme{"extreme", 1.0, 5.0, 1.0};
  const ToolchainedApplication app(base_, extreme);
  EXPECT_LE(app.model().spec().beta,
            1.0 - app.model().spec().comm_fraction + 1e-12);
}

TEST_F(ToolchainTest, InvalidToolchainsRejected) {
  EXPECT_THROW(ToolchainedApplication(base_, {"bad", 0.0, 0.0, 1.0}),
               InvalidArgument);
  EXPECT_THROW(ToolchainedApplication(base_, {"bad", 1.0, 0.0, -1.0}),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcem
