// Seed-robustness property tests: the headline savings must be properties
// of the model, not of one lucky random stream.  Compact campaign windows
// (2 weeks either side of the change) keep each seed's run fast.
#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace hpcem {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Facility facility_ = Facility::archer2();
};

TEST_P(SeedSweep, BiosSavingStableAcrossSeeds) {
  ScenarioRunner runner(facility_, GetParam());
  runner.set_warmup(Duration::days(20.0));
  const TimelineResult r = runner.run_campaign(
      sim_time_from_date({2022, 4, 25}), sim_time_from_date({2022, 5, 23}),
      OperatingPolicy::baseline(), sim_time_from_date({2022, 5, 9}),
      OperatingPolicy::performance_determinism());
  const double saving = (r.mean_before_kw - r.mean_after_kw).kw();
  // Paper: 210 kW.  Allow generous seed noise but demand the right scale.
  EXPECT_GT(saving, 120.0) << "seed " << GetParam();
  EXPECT_LT(saving, 320.0) << "seed " << GetParam();
  EXPECT_NEAR(r.mean_before_kw.kw(), 3220.0, 3220.0 * 0.04);
}

TEST_P(SeedSweep, FrequencySavingStableAcrossSeeds) {
  ScenarioRunner runner(facility_, GetParam());
  runner.set_warmup(Duration::days(20.0));
  const TimelineResult r = runner.run_campaign(
      sim_time_from_date({2022, 11, 17}),
      sim_time_from_date({2022, 12, 15}),
      OperatingPolicy::performance_determinism(),
      sim_time_from_date({2022, 12, 1}),
      OperatingPolicy::low_frequency_default());
  const double saving = (r.mean_before_kw - r.mean_after_kw).kw();
  // Paper: 480 kW.
  EXPECT_GT(saving, 360.0) << "seed " << GetParam();
  EXPECT_LT(saving, 600.0) << "seed " << GetParam();
  EXPECT_NEAR(r.mean_before_kw.kw(), 3010.0, 3010.0 * 0.04);
  // Utilisation must stay in the paper's regime under every seed.
  EXPECT_GT(r.mean_utilisation, 0.87);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

}  // namespace
}  // namespace hpcem
