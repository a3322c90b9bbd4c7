// Tests for the synthetic workload generator.
#include <gtest/gtest.h>

#include <map>

#include "util/error.hpp"
#include "workload/generator.hpp"

namespace hpcem {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);

  WorkloadGenerator make(WorkloadGenParams p = {}, std::uint64_t seed = 1) {
    return WorkloadGenerator(cat_, 5860, p, Rng(seed));
  }
};

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  auto g1 = make({}, 42);
  auto g2 = make({}, 42);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const SimTime end = start + Duration::days(2.0);
  const auto a = g1.generate(start, end);
  const auto b = g2.generate(start, end);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_DOUBLE_EQ(a[i].submit_time.sec(), b[i].submit_time.sec());
  }
}

TEST_F(GeneratorTest, JobsAreTimeOrderedWithinWindow) {
  auto g = make();
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const SimTime end = start + Duration::days(3.0);
  const auto jobs = g.generate(start, end);
  ASSERT_GT(jobs.size(), 100u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].submit_time.sec(), jobs[i].submit_time.sec());
  }
  for (const auto& j : jobs) {
    EXPECT_GE(j.submit_time.sec(), start.sec());
    EXPECT_LT(j.submit_time.sec(), end.sec());
  }
}

TEST_F(GeneratorTest, JobGeometryIsSane) {
  auto g = make();
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const auto jobs = g.generate(start, start + Duration::days(5.0));
  for (const auto& j : jobs) {
    EXPECT_GE(j.nodes, 1u);
    EXPECT_LE(j.nodes, 1024u);
    EXPECT_GT(j.ref_runtime.sec(), 0.0);
    // Walltime covers the worst slowdown the hardware can express.
    EXPECT_GE(j.requested_walltime.sec(), j.ref_runtime.sec() * 1.87);
    EXPECT_GE(j.silicon_factor, 0.5);
    EXPECT_LE(j.silicon_factor, 1.5);
    EXPECT_TRUE(cat_.contains(j.app));
  }
}

TEST_F(GeneratorTest, JobIdsAreUnique) {
  auto g = make();
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const auto jobs = g.generate(start, start + Duration::days(3.0));
  std::map<JobId, int> seen;
  for (const auto& j : jobs) {
    EXPECT_EQ(seen[j.id]++, 0);
  }
}

TEST_F(GeneratorTest, OfferedNodeHoursMatchTarget) {
  WorkloadGenParams p;
  p.offered_load = 0.91;
  auto g = make(p, 7);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const Duration span = Duration::days(28.0);  // whole weeks
  const auto jobs = g.generate(start, start + span);
  double node_hours = 0.0;
  for (const auto& j : jobs) {
    node_hours += static_cast<double>(j.nodes) * j.ref_runtime.hrs();
  }
  const double target = 0.91 * 5860.0 * span.hrs();
  EXPECT_NEAR(node_hours / target, 1.0, 0.06);
}

TEST_F(GeneratorTest, NodeHourMixFollowsCatalogWeights) {
  auto g = make({}, 11);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const auto jobs = g.generate(start, start + Duration::days(45.0));
  std::map<std::string, double> nh;
  double total = 0.0;
  for (const auto& j : jobs) {
    const double h = static_cast<double>(j.nodes) * j.ref_runtime.hrs();
    nh[cat_.name(j.app)] += h;
    total += h;
  }
  double weight_total = 0.0;
  for (const auto* app : cat_.production_mix()) {
    weight_total += app->spec().mix_weight;
  }
  // The big contributors must land near their configured node-hour share.
  for (const char* name : {"VASP (production)", "UM atmosphere (production)",
                           "CASTEP (production)"}) {
    const double expected = cat_.at(name).spec().mix_weight / weight_total;
    EXPECT_NEAR(nh[name] / total, expected, 0.35 * expected) << name;
  }
}

TEST_F(GeneratorTest, WeekendsQuieterThanWeekdays) {
  WorkloadGenParams p;
  p.weekend_factor = 0.5;
  auto g = make(p, 13);
  // 2022-01-03 is a Monday; generate 8 full weeks.
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const auto jobs = g.generate(start, start + Duration::days(56.0));
  double weekday = 0.0, weekend = 0.0;
  for (const auto& j : jobs) {
    (day_of_week(j.submit_time) >= 5 ? weekend : weekday) += 1.0;
  }
  // Rate ratio 0.5 with 2/5 of the days: weekend count ~ 0.2 of weekday's.
  EXPECT_LT(weekend / weekday, 0.35);
}

TEST_F(GeneratorTest, UserPinFractionRoughlyHonoured) {
  WorkloadGenParams p;
  p.user_turbo_pin_fraction = 0.25;
  auto g = make(p, 17);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  const auto jobs = g.generate(start, start + Duration::days(10.0));
  std::size_t pinned = 0;
  for (const auto& j : jobs) {
    if (j.user_pstate) {
      EXPECT_EQ(*j.user_pstate, pstates::kHighTurbo);
      ++pinned;
    }
  }
  EXPECT_NEAR(static_cast<double>(pinned) /
                  static_cast<double>(jobs.size()),
              0.25, 0.05);
}

TEST_F(GeneratorTest, RateScaleZeroGeneratesNothing) {
  auto g = make({}, 19);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  EXPECT_TRUE(g.generate_hour(start, 0.0).empty());
}

TEST_F(GeneratorTest, RateScaleScalesVolume) {
  auto g1 = make({}, 23);
  auto g2 = make({}, 23);
  const SimTime start = sim_time_from_date({2022, 1, 3});
  std::size_t full = 0, half = 0;
  for (int h = 0; h < 24 * 14; ++h) {
    const SimTime t = start + Duration::hours(h);
    full += g1.generate_hour(t, 1.0).size();
    half += g2.generate_hour(t, 0.5).size();
  }
  EXPECT_NEAR(static_cast<double>(half) / static_cast<double>(full), 0.5,
              0.08);
}

TEST_F(GeneratorTest, InvalidConfigThrows) {
  WorkloadGenParams p;
  p.offered_load = 0.0;
  EXPECT_THROW(make(p), InvalidArgument);
  p = {};
  p.weekend_factor = 0.0;
  EXPECT_THROW(make(p), InvalidArgument);
  p = {};
  p.max_job_nodes = 0;
  EXPECT_THROW(make(p), InvalidArgument);
  p = {};
  p.max_job_nodes = 10000;  // larger than the machine
  EXPECT_THROW(make(p), InvalidArgument);
  EXPECT_THROW(WorkloadGenerator(cat_, 0, {}, Rng(1)), InvalidArgument);
}

TEST_F(GeneratorTest, MeanJobNodeHoursIsHarmonicWeighted) {
  auto g = make();
  // Must be positive and far below the machine's hourly capacity.
  const double nh = g.mean_job_node_hours();
  EXPECT_GT(nh, 10.0);
  EXPECT_LT(nh, 2000.0);
  EXPECT_NEAR(g.offered_node_hours_per_hour(), 0.97 * 5860.0, 1e-9);
}

}  // namespace
}  // namespace hpcem
