// Tests for the service-metrics computation.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

JobRecord record(double wait_h, double runtime_h, std::size_t nodes,
                 PState ps, double node_w = 460.0) {
  JobRecord r;
  r.spec.id = 1;
  r.spec.nodes = nodes;
  r.spec.submit_time = SimTime(0.0);
  r.start_time = SimTime(wait_h * 3600.0);
  r.end_time = r.start_time + Duration::hours(runtime_h);
  r.pstate = ps;
  r.mode = DeterminismMode::kPerformanceDeterminism;
  r.node_power_w = Power::watts(node_w);
  r.node_energy = Power::watts(node_w * static_cast<double>(nodes)) *
                  Duration::hours(runtime_h);
  return r;
}

TEST(ServiceMetrics, BasicAggregation) {
  const std::vector<JobRecord> recs = {
      record(1.0, 2.0, 10, pstates::kHighTurbo),
      record(3.0, 4.0, 5, pstates::kMid),
  };
  const ServiceMetrics m = compute_service_metrics(recs);
  EXPECT_EQ(m.jobs, 2u);
  EXPECT_NEAR(m.delivered_node_hours, 10.0 * 2.0 + 5.0 * 4.0, 1e-9);
  EXPECT_NEAR(m.node_energy.to_kwh(), 0.46 * 40.0, 1e-6);
  EXPECT_NEAR(m.kwh_per_node_hour, 0.46, 1e-9);
  EXPECT_NEAR(m.wait_hours.median, 2.0, 1e-9);
}

TEST(ServiceMetrics, BoundedSlowdownFloorsShortJobs) {
  // A 1-minute job waiting 10 minutes must not register a slowdown of 11;
  // the 10-minute floor caps the denominator.
  const std::vector<JobRecord> recs = {
      record(10.0 / 60.0, 1.0 / 60.0, 1, pstates::kHighTurbo)};
  const ServiceMetrics m = compute_service_metrics(recs);
  EXPECT_NEAR(m.bounded_slowdown.median, (600.0 + 60.0) / 600.0, 1e-9);
}

TEST(ServiceMetrics, PStateSharesSumToOne) {
  const std::vector<JobRecord> recs = {
      record(0.0, 2.0, 10, pstates::kHighTurbo),
      record(0.0, 2.0, 30, pstates::kMid),
      record(0.0, 2.0, 10, pstates::kMid),
  };
  const ServiceMetrics m = compute_service_metrics(recs);
  double total = 0.0;
  for (const auto& [label, share] : m.node_hour_share_by_pstate) {
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(m.node_hour_share_by_pstate.at("2.0 GHz"), 0.8, 1e-9);
  EXPECT_NEAR(m.node_hour_share_by_pstate.at("2.25 GHz + turbo"), 0.2,
              1e-9);
}

TEST(ServiceMetrics, EmptyInputThrows) {
  EXPECT_THROW(compute_service_metrics({}), InvalidArgument);
}

TEST(ServiceMetrics, RenderListsHeadlines) {
  const std::vector<JobRecord> recs = {
      record(1.0, 2.0, 10, pstates::kHighTurbo)};
  const std::string s =
      render_service_metrics(compute_service_metrics(recs));
  EXPECT_NE(s.find("jobs completed"), std::string::npos);
  EXPECT_NE(s.find("kWh per delivered node-hour"), std::string::npos);
  EXPECT_NE(s.find("node-hours at 2.25 GHz + turbo"), std::string::npos);
}

}  // namespace
}  // namespace hpcem
