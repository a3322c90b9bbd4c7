// Catalogue-wide property sweep: physical invariants that every entry —
// benchmark or production, present or future — must satisfy at every
// operating point.  Parameterised over the application names so a failure
// pinpoints the offending entry.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "workload/catalog.hpp"
#include "workload/policy.hpp"

namespace hpcem {
namespace {

std::vector<std::string> all_app_names() {
  const NodePowerParams np;
  const AppCatalog cat = AppCatalog::archer2(np);
  std::vector<std::string> names;
  for (const auto& app : cat.apps()) names.push_back(app.name());
  return names;
}

class CatalogSweep : public ::testing::TestWithParam<std::string> {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);
  const ApplicationModel& app() const { return cat_.at(GetParam()); }
};

TEST_P(CatalogSweep, PowerMonotoneInFrequencyUnderBothModes) {
  for (DeterminismMode mode : {DeterminismMode::kPowerDeterminism,
                               DeterminismMode::kPerformanceDeterminism}) {
    double prev = 0.0;
    for (const PState& ps : {pstates::kLow, pstates::kMid,
                             pstates::kHighNoTurbo, pstates::kHighTurbo}) {
      const double w = app().node_draw(mode, ps).w();
      EXPECT_GT(w, prev) << to_string(ps);
      EXPECT_GT(w, np_.idle.w());      // loaded beats idle
      EXPECT_LT(w, 900.0);             // within the platform envelope
      prev = w;
    }
  }
}

TEST_P(CatalogSweep, RuntimeNeverImprovesWhenDownclocking) {
  const auto mode = DeterminismMode::kPerformanceDeterminism;
  const double at_turbo = app().time_factor(mode, pstates::kHighTurbo);
  const double at_mid = app().time_factor(mode, pstates::kMid);
  const double at_low = app().time_factor(mode, pstates::kLow);
  EXPECT_LE(at_turbo, at_mid);
  EXPECT_LE(at_mid, at_low);
  EXPECT_NEAR(at_turbo, 1.0, 1e-12);  // reference conditions
}

TEST_P(CatalogSweep, PowerDeterminismCostsEnergyNotMuchTime) {
  const double e = app().energy_ratio(
      DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo,
      DeterminismMode::kPowerDeterminism, pstates::kHighTurbo);
  const double p = app().perf_ratio(
      DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo,
      DeterminismMode::kPowerDeterminism, pstates::kHighTurbo);
  // Performance determinism always saves energy (Table 3's direction) at
  // no more than ~1.5% performance.
  EXPECT_LT(e, 1.0);
  EXPECT_GT(e, 0.80);
  EXPECT_GE(p, 0.985);
  EXPECT_LE(p, 1.0 + 1e-12);
}

TEST_P(CatalogSweep, TwoGhzAlwaysImprovesEnergyToSolution) {
  // The paper: "All the application benchmarks are more energy efficient
  // at 2.0 GHz" — enforced catalogue-wide.
  const auto mode = DeterminismMode::kPerformanceDeterminism;
  const double e = app().energy_ratio(mode, pstates::kMid, mode,
                                      pstates::kHighTurbo);
  EXPECT_LT(e, 0.97);
  EXPECT_GT(e, 0.60);
}

TEST_P(CatalogSweep, ProfileIsPhysical) {
  EXPECT_GE(app().profile().core_w.w(), 0.0);
  EXPECT_GE(app().profile().uncore_w.w(), 0.0);
  EXPECT_NEAR((np_.idle + app().profile().total_w()).w(),
              app().spec().loaded_node_w.w(), 1e-6);
  EXPECT_GE(app().spec().beta, 0.0);
  EXPECT_LE(app().spec().beta + app().spec().comm_fraction, 1.0 + 1e-12);
}

TEST_P(CatalogSweep, PolicyResolutionTotalOrder) {
  // Under the paper's final policy, the resolved P-state is either the
  // default or the turbo revert — never anything else.
  const OperatingPolicy policy = OperatingPolicy::low_frequency_default();
  JobSpec probe;
  const PState ps = policy.resolve_pstate(app(), probe);
  EXPECT_TRUE(ps == pstates::kMid || ps == pstates::kHighTurbo);
  // And the revert fires exactly when the slowdown exceeds the threshold.
  const double slowdown = app().expected_slowdown(
      policy.bios_mode, policy.default_pstate);
  EXPECT_EQ(ps == pstates::kHighTurbo, slowdown > policy.revert_threshold);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CatalogSweep, ::testing::ValuesIn(all_app_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hpcem
