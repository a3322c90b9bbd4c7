// Campaign specs run on the fast testbed machine (the full ARCHER2
// campaigns are covered by the integration reproduction suite).
#include <gtest/gtest.h>

#include "core/assembly.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static SimTime day(int offset) {
    return sim_time_from_date({2022, 6, 1}) + Duration::days(offset);
  }

  /// A testbed campaign over [day(start), day(end)) under `policy`, at
  /// seed 99 after a 7-day warm-up.
  static ScenarioSpec campaign(int start, int end,
                               const OperatingPolicy& policy) {
    ScenarioSpec spec;
    spec.name = "campaign";
    spec.machine = MachineModel::kTestbed;
    spec.window_start = day(start);
    spec.window_end = day(end);
    spec.warmup = Duration::days(7.0);
    spec.seed = 99;
    spec.policy = policy;
    return spec;
  }
};

TEST_F(ScenarioTest, NoChangeCampaignHasEqualMeans) {
  const TimelineResult r =
      FacilityAssembly(campaign(0, 21, OperatingPolicy::baseline())).run();
  EXPECT_DOUBLE_EQ(r.headline.mean_before_kw.kw(), r.headline.mean_kw.kw());
  EXPECT_DOUBLE_EQ(r.headline.mean_after_kw.kw(), r.headline.mean_kw.kw());
  EXPECT_FALSE(r.change_time.has_value());
  EXPECT_GT(r.headline.mean_utilisation, 0.75);
  EXPECT_GT(r.cabinet_kw.size(), 900u);
}

TEST_F(ScenarioTest, ChangeCampaignStepsDown) {
  ScenarioSpec spec = campaign(0, 28, OperatingPolicy::baseline());
  spec.changes.push_back({day(14), OperatingPolicy::low_frequency_default()});
  const TimelineResult r = FacilityAssembly(spec).run();
  EXPECT_LT(r.headline.mean_after_kw, r.headline.mean_before_kw * 0.90);
  ASSERT_TRUE(r.detected.has_value());
  // The recovered changepoint lands within two days of the rollout.
  EXPECT_LT(std::abs((r.detected->time - day(14)).day()), 2.0);
}

TEST_F(ScenarioTest, PolicyOrderingHoldsOnTheTestbed) {
  // The same three-level cascade as the flagship machine, at 1/11 scale.
  const auto mean_kw = [](const OperatingPolicy& policy) {
    return FacilityAssembly(campaign(0, 14, policy)).run().headline.mean_kw.kw();
  };
  const double base = mean_kw(OperatingPolicy::baseline());
  const double perfdet = mean_kw(OperatingPolicy::performance_determinism());
  const double lowfreq = mean_kw(OperatingPolicy::low_frequency_default());
  EXPECT_GT(base, perfdet);
  EXPECT_GT(perfdet, lowfreq);
  // Scale sanity: ~512/5860 of the flagship's levels plus plant floors.
  EXPECT_GT(base, 250.0);
  EXPECT_LT(base, 350.0);
}

TEST_F(ScenarioTest, ValidationErrors) {
  EXPECT_THROW(
      FacilityAssembly{campaign(10, 0, OperatingPolicy::baseline())},
      InvalidArgument);
}

}  // namespace
}  // namespace hpcem
