// End-to-end reproduction tests: the paper's headline numbers must emerge
// from the full facility simulation within tolerance.  These are the
// slowest tests in the suite (they run the three measurement campaigns on
// the full 5,860-node machine), so the campaign results are computed once
// per suite.
#include <gtest/gtest.h>

#include <memory>

#include "core/report.hpp"
#include "core/scenario_library.hpp"

namespace hpcem {
namespace {

class ReproductionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fig1_ = run("figure1");
    fig2_ = run("figure2");
    fig3_ = run("figure3");
  }
  static void TearDownTestSuite() {
    fig3_.reset();
    fig2_.reset();
    fig1_.reset();
  }

  static std::unique_ptr<TimelineResult> run(const std::string& name) {
    return std::make_unique<TimelineResult>(
        FacilityAssembly(load_named_scenario(name)).run());
  }

  static std::unique_ptr<TimelineResult> fig1_;
  static std::unique_ptr<TimelineResult> fig2_;
  static std::unique_ptr<TimelineResult> fig3_;
};

std::unique_ptr<TimelineResult> ReproductionTest::fig1_;
std::unique_ptr<TimelineResult> ReproductionTest::fig2_;
std::unique_ptr<TimelineResult> ReproductionTest::fig3_;

TEST_F(ReproductionTest, Figure1BaselineMeanNear3220) {
  // Paper: mean 3,220 kW over Dec 2021 - Apr 2022.
  EXPECT_NEAR(fig1_->headline.mean_kw.kw(), 3220.0, 3220.0 * 0.03);
}

TEST_F(ReproductionTest, Figure1UtilisationConsistentlyOverNinety) {
  EXPECT_GT(fig1_->headline.mean_utilisation, 0.90);
  EXPECT_LE(fig1_->headline.mean_utilisation, 1.0);
}

TEST_F(ReproductionTest, Figure1WindowCoversFiveMonths) {
  EXPECT_NEAR((fig1_->window_end - fig1_->window_start).day(), 151.0, 1.0);
  EXPECT_GT(fig1_->cabinet_kw.size(), 7000u);  // half-hourly samples
}

TEST_F(ReproductionTest, Figure2BiosChangeLevels) {
  // Paper: 3,220 kW -> 3,010 kW (210 kW, 6.5%).
  EXPECT_NEAR(fig2_->headline.mean_before_kw.kw(), 3220.0, 3220.0 * 0.03);
  EXPECT_NEAR(fig2_->headline.mean_after_kw.kw(), 3010.0, 3010.0 * 0.03);
  const double saving = (fig2_->headline.mean_before_kw - fig2_->headline.mean_after_kw).kw();
  EXPECT_NEAR(saving, 210.0, 70.0);
}

TEST_F(ReproductionTest, Figure2ChangepointRecoveredNearTheRollout) {
  ASSERT_TRUE(fig2_->detected.has_value());
  ASSERT_TRUE(fig2_->change_time.has_value());
  const double days_off =
      std::abs((fig2_->detected->time - *fig2_->change_time).day());
  EXPECT_LT(days_off, 4.0);
  EXPECT_LT(fig2_->detected->mean_after, fig2_->detected->mean_before);
}

TEST_F(ReproductionTest, Figure3FrequencyChangeLevels) {
  // Paper: 3,010 kW -> 2,530 kW (480 kW; 21% cumulative).
  EXPECT_NEAR(fig3_->headline.mean_before_kw.kw(), 3010.0, 3010.0 * 0.03);
  EXPECT_NEAR(fig3_->headline.mean_after_kw.kw(), 2530.0, 2530.0 * 0.03);
  const double saving = (fig3_->headline.mean_before_kw - fig3_->headline.mean_after_kw).kw();
  EXPECT_NEAR(saving, 480.0, 100.0);
}

TEST_F(ReproductionTest, Figure3ChangepointSharpAtTheDefaultFlip) {
  ASSERT_TRUE(fig3_->detected.has_value());
  const double days_off =
      std::abs((fig3_->detected->time - *fig3_->change_time).day());
  EXPECT_LT(days_off, 3.0);
}

TEST_F(ReproductionTest, CumulativeSavingNearTwentyOnePercent) {
  const double total =
      (fig1_->headline.mean_kw - fig3_->headline.mean_after_kw) / fig1_->headline.mean_kw;
  EXPECT_NEAR(total, 0.21, 0.035);
}

TEST_F(ReproductionTest, UtilisationStaysHighThroughBothChanges) {
  // The paper stresses utilisation is "consistently over 90%" across every
  // period considered; the budget-feedback demand model must keep it there
  // even when jobs slow down at 2.0 GHz.
  EXPECT_GT(fig2_->headline.mean_utilisation, 0.89);
  EXPECT_GT(fig3_->headline.mean_utilisation, 0.89);
}

TEST_F(ReproductionTest, TimelineReportsRenderEndToEnd) {
  const std::string s1 = render_timeline(*fig1_, "Figure 1");
  const std::string s3 = render_timeline(*fig3_, "Figure 3");
  EXPECT_NE(s1.find("Dec 2021"), std::string::npos);
  EXPECT_NE(s3.find("changepoint recovered"), std::string::npos);
}

}  // namespace
}  // namespace hpcem
