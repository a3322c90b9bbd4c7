// Seed-robustness property tests: the headline savings must be properties
// of the model, not of one lucky random stream.  Compact campaign windows
// (2 weeks either side of the change) keep each seed's run fast.
#include <gtest/gtest.h>

#include "core/assembly.hpp"

namespace hpcem {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A flagship campaign over [start, end) at this seed, switching from
  /// `before` to `after` at `change`, after a 20-day warm-up.
  [[nodiscard]] TimelineResult run_campaign(
      SimTime start, SimTime end, const OperatingPolicy& before,
      SimTime change, const OperatingPolicy& after) const {
    ScenarioSpec spec;
    spec.name = "campaign";
    spec.window_start = start;
    spec.window_end = end;
    spec.warmup = Duration::days(20.0);
    spec.seed = GetParam();
    spec.policy = before;
    spec.changes.push_back({change, after});
    return FacilityAssembly(spec).run();
  }
};

TEST_P(SeedSweep, BiosSavingStableAcrossSeeds) {
  const TimelineResult r = run_campaign(
      sim_time_from_date({2022, 4, 25}), sim_time_from_date({2022, 5, 23}),
      OperatingPolicy::baseline(), sim_time_from_date({2022, 5, 9}),
      OperatingPolicy::performance_determinism());
  const double saving = (r.headline.mean_before_kw - r.headline.mean_after_kw).kw();
  // Paper: 210 kW.  Allow generous seed noise but demand the right scale.
  EXPECT_GT(saving, 120.0) << "seed " << GetParam();
  EXPECT_LT(saving, 320.0) << "seed " << GetParam();
  EXPECT_NEAR(r.headline.mean_before_kw.kw(), 3220.0, 3220.0 * 0.04);
}

TEST_P(SeedSweep, FrequencySavingStableAcrossSeeds) {
  const TimelineResult r = run_campaign(
      sim_time_from_date({2022, 11, 17}),
      sim_time_from_date({2022, 12, 15}),
      OperatingPolicy::performance_determinism(),
      sim_time_from_date({2022, 12, 1}),
      OperatingPolicy::low_frequency_default());
  const double saving = (r.headline.mean_before_kw - r.headline.mean_after_kw).kw();
  // Paper: 480 kW.
  EXPECT_GT(saving, 360.0) << "seed " << GetParam();
  EXPECT_LT(saving, 600.0) << "seed " << GetParam();
  EXPECT_NEAR(r.headline.mean_before_kw.kw(), 3010.0, 3010.0 * 0.04);
  // Utilisation must stay in the paper's regime under every seed.
  EXPECT_GT(r.headline.mean_utilisation, 0.87);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

}  // namespace
}  // namespace hpcem
