// Tests for per-area energy accounting.
#include <gtest/gtest.h>

#include "core/accounting.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

class AccountingTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);

  JobRecord record(const std::string& app, std::size_t nodes,
                   double runtime_h, double node_w = 460.0) const {
    JobRecord r;
    r.spec.app = cat_.find(app).value_or(static_cast<AppId>(cat_.size()));
    r.spec.nodes = nodes;
    r.spec.submit_time = SimTime(0.0);
    r.start_time = SimTime(0.0);
    r.end_time = SimTime(runtime_h * 3600.0);
    r.pstate = pstates::kHighTurbo;
    r.node_power_w = Power::watts(node_w);
    r.node_energy = Power::watts(node_w * static_cast<double>(nodes)) *
                    Duration::hours(runtime_h);
    return r;
  }
};

TEST_F(AccountingTest, BucketsByAreaAndApp) {
  const std::vector<JobRecord> recs = {
      record("VASP (production)", 8, 2.0),
      record("CASTEP (production)", 4, 1.0),
      record("UM atmosphere (production)", 64, 1.0),
  };
  const UsageBreakdown b =
      account_usage(recs, cat_, CarbonIntensity::g_per_kwh(200.0));
  EXPECT_EQ(b.total.jobs, 3u);
  EXPECT_NEAR(b.total.node_hours, 16.0 + 4.0 + 64.0, 1e-9);
  // VASP and CASTEP are both materials science.
  const auto& materials = b.by_area.at("materials science");
  EXPECT_EQ(materials.jobs, 2u);
  EXPECT_NEAR(materials.node_hours, 20.0, 1e-9);
  EXPECT_NEAR(b.area_share("materials science"), 20.0 / 84.0, 1e-9);
  EXPECT_NEAR(b.area_share("climate/ocean modelling"), 64.0 / 84.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.area_share("no such area"), 0.0);
}

TEST_F(AccountingTest, EnergyAndEmissionsConsistent) {
  const std::vector<JobRecord> recs = {record("VASP (production)", 10, 1.0,
                                              500.0)};
  const UsageBreakdown b =
      account_usage(recs, cat_, CarbonIntensity::g_per_kwh(100.0));
  EXPECT_NEAR(b.total.energy.to_kwh(), 5.0, 1e-9);
  EXPECT_NEAR(b.total.scope2.g(), 500.0, 1e-6);
  EXPECT_NEAR(b.total.mean_node_w().w(), 500.0, 1e-9);
}

TEST_F(AccountingTest, UnknownAppsGrouped) {
  // An id outside the catalogue (record() maps unknown names past its
  // end) is grouped, never looked up.
  const std::vector<JobRecord> recs = {record("mystery-code", 1, 1.0),
                                       record("VASP (production)", 1, 1.0)};
  const UsageBreakdown b =
      account_usage(recs, cat_, CarbonIntensity::g_per_kwh(100.0));
  EXPECT_EQ(b.by_area.count("(unknown)"), 1u);
  EXPECT_EQ(b.by_app.count("(unknown)"), 1u);
  EXPECT_EQ(b.by_app.count("VASP (production)"), 1u);
}

TEST_F(AccountingTest, RenderSortsByNodeHours) {
  const std::vector<JobRecord> recs = {
      record("VASP (production)", 1, 1.0),
      record("UM atmosphere (production)", 128, 6.0),
  };
  const std::string s = render_usage_breakdown(
      account_usage(recs, cat_, CarbonIntensity::g_per_kwh(100.0)));
  // Climate dominates and must come first.
  EXPECT_LT(s.find("climate/ocean"), s.find("materials science"));
  EXPECT_NE(s.find("Total"), std::string::npos);
  EXPECT_NE(s.find("100.0%"), std::string::npos);
}

TEST_F(AccountingTest, Validation) {
  EXPECT_THROW(account_usage({}, cat_, CarbonIntensity::g_per_kwh(100.0)),
               InvalidArgument);
  const std::vector<JobRecord> recs = {record("VASP (production)", 1, 1.0)};
  EXPECT_THROW(account_usage(recs, cat_, CarbonIntensity::g_per_kwh(-1.0)),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcem
