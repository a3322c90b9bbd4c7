// Tests for the policy-epoch factor cache: every cached number must be
// bit-identical to the uncached ApplicationModel call it replaces (the
// cache is a reordering of when the arithmetic runs, not a change to it).
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/policy_cache.hpp"

namespace hpcem {
namespace {

class PolicyCacheTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);
};

TEST_F(PolicyCacheTest, LookupBeforeSetPolicyThrows) {
  const PolicyFactorCache cache(cat_);
  EXPECT_EQ(cache.epoch(), 0u);
  EXPECT_THROW((void)cache.factors(JobSpec{}), StateError);
}

TEST_F(PolicyCacheTest, FactorsMatchUncachedCallsExactly) {
  PolicyFactorCache cache(cat_);
  for (const OperatingPolicy& policy :
       {OperatingPolicy::baseline(), OperatingPolicy::performance_determinism(),
        OperatingPolicy::low_frequency_default()}) {
    cache.set_policy(policy);
    JobSpec job;  // no user pin: policy resolution applies
    for (std::size_t a = 0; a < cat_.apps().size(); ++a) {
      job.app = static_cast<AppId>(a);
      const ApplicationModel& app = cat_.at(job.app);
      const PState resolved = policy.resolve_pstate(app, job);
      const auto& f = cache.factors(job);
      EXPECT_EQ(f.pstate, resolved);
      EXPECT_EQ(f.time_factor, app.time_factor(policy.bios_mode, resolved));
      // The hoisted draw terms reproduce node_draw bit-for-bit across the
      // silicon range.
      for (const double s : {0.5, 0.93, 1.0, 1.27, 1.5}) {
        EXPECT_EQ(f.draw.watts(s),
                  app.node_draw(policy.bios_mode, resolved, s).w());
      }
    }
  }
  EXPECT_EQ(cache.epoch(), 3u);
}

TEST_F(PolicyCacheTest, UserPinnedPStateOverridesThePolicySlot) {
  PolicyFactorCache cache(cat_);
  const OperatingPolicy policy = OperatingPolicy::low_frequency_default();
  cache.set_policy(policy);
  const AppId a = cat_.id("LAMMPS Ethanol");
  const ApplicationModel& app = cat_.at(a);
  for (const PState& pin :
       {pstates::kLow, pstates::kMid, pstates::kHighTurbo,
        pstates::kHighNoTurbo}) {
    JobSpec job;
    job.app = a;
    job.user_pstate = pin;
    const auto& f = cache.factors(job);
    EXPECT_EQ(f.pstate, pin);
    EXPECT_EQ(f.time_factor, app.time_factor(policy.bios_mode, pin));
  }
}

TEST_F(PolicyCacheTest, DemandScaleMatchesMixAverage) {
  PolicyFactorCache cache(cat_);
  const OperatingPolicy policy = OperatingPolicy::low_frequency_default();
  cache.set_policy(policy);
  const JobSpec probe;
  const double mean = cat_.mix_average([&](const ApplicationModel& app) {
    return app.time_factor(policy.bios_mode,
                           policy.resolve_pstate(app, probe));
  });
  EXPECT_EQ(cache.demand_scale(), 1.0 / mean);
}

TEST_F(PolicyCacheTest, InvalidInputsRejected) {
  PolicyFactorCache cache(cat_);
  cache.set_policy(OperatingPolicy::baseline());
  JobSpec past_end;
  past_end.app = static_cast<AppId>(cat_.apps().size());
  EXPECT_THROW((void)cache.factors(past_end), InvalidArgument);
  JobSpec job;
  job.user_pstate = PState{Frequency::ghz(3.1), false};  // not expressible
  EXPECT_THROW((void)cache.factors(job), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
