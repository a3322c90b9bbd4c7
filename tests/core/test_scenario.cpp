// Unit tests for the campaign runner, on the fast testbed facility (the
// full ARCHER2 campaigns are covered by the integration reproduction
// suite).
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  Facility tb_ = Facility::testbed();
  ScenarioRunner runner_{tb_, /*seed=*/99};

  void SetUp() override { runner_.set_warmup(Duration::days(7.0)); }

  static SimTime day(int offset) {
    return sim_time_from_date({2022, 6, 1}) + Duration::days(offset);
  }
};

TEST_F(ScenarioTest, NoChangeCampaignHasEqualMeans) {
  const TimelineResult r = runner_.run_campaign(
      day(0), day(21), OperatingPolicy::baseline(), std::nullopt,
      std::nullopt);
  EXPECT_DOUBLE_EQ(r.mean_before_kw.kw(), r.mean_kw.kw());
  EXPECT_DOUBLE_EQ(r.mean_after_kw.kw(), r.mean_kw.kw());
  EXPECT_FALSE(r.change_time.has_value());
  EXPECT_GT(r.mean_utilisation, 0.75);
  EXPECT_GT(r.cabinet_kw.size(), 900u);
}

TEST_F(ScenarioTest, ChangeCampaignStepsDown) {
  const TimelineResult r = runner_.run_campaign(
      day(0), day(28), OperatingPolicy::baseline(), day(14),
      OperatingPolicy::low_frequency_default());
  EXPECT_LT(r.mean_after_kw, r.mean_before_kw * 0.90);
  ASSERT_TRUE(r.detected.has_value());
  // The recovered changepoint lands within two days of the rollout.
  EXPECT_LT(std::abs((r.detected->time - day(14)).day()), 2.0);
}

TEST_F(ScenarioTest, PolicyOrderingHoldsOnTheTestbed) {
  // The same three-level cascade as the flagship machine, at 1/11 scale.
  const double base =
      runner_
          .run_campaign(day(0), day(14), OperatingPolicy::baseline(),
                        std::nullopt, std::nullopt)
          .mean_kw.kw();
  ScenarioRunner r2(tb_, 99);
  r2.set_warmup(Duration::days(7.0));
  const double perfdet =
      r2.run_campaign(day(0), day(14),
                      OperatingPolicy::performance_determinism(),
                      std::nullopt, std::nullopt)
          .mean_kw.kw();
  ScenarioRunner r3(tb_, 99);
  r3.set_warmup(Duration::days(7.0));
  const double lowfreq =
      r3.run_campaign(day(0), day(14),
                      OperatingPolicy::low_frequency_default(),
                      std::nullopt, std::nullopt)
          .mean_kw.kw();
  EXPECT_GT(base, perfdet);
  EXPECT_GT(perfdet, lowfreq);
  // Scale sanity: ~512/5860 of the flagship's levels plus plant floors.
  EXPECT_GT(base, 250.0);
  EXPECT_LT(base, 350.0);
}

TEST_F(ScenarioTest, ValidationErrors) {
  EXPECT_THROW(runner_.run_campaign(day(10), day(0),
                                    OperatingPolicy::baseline(),
                                    std::nullopt, std::nullopt),
               InvalidArgument);
  // Change and after-policy must come together.
  EXPECT_THROW(runner_.run_campaign(day(0), day(10),
                                    OperatingPolicy::baseline(), day(5),
                                    std::nullopt),
               InvalidArgument);
  // Change must fall inside the window.
  EXPECT_THROW(runner_.run_campaign(
                   day(0), day(10), OperatingPolicy::baseline(), day(20),
                   OperatingPolicy::performance_determinism()),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcem
