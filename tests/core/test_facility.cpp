// Tests for the assembled ARCHER2 facility model.
#include <gtest/gtest.h>

#include "core/facility.hpp"
#include "core/scenario_library.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

class FacilityTest : public ::testing::Test {
 protected:
  Facility f_ = Facility::archer2();
};

TEST_F(FacilityTest, Archer2Assembly) {
  EXPECT_EQ(f_.name(), "ARCHER2");
  EXPECT_EQ(f_.inventory().compute_nodes, 5860u);
  EXPECT_EQ(f_.inventory().total_cores(), 750080u);
  EXPECT_EQ(f_.fabric().params().total_switches(), 768u);
  EXPECT_GE(f_.catalog().size(), 20u);
}

TEST_F(FacilityTest, HardwareSummaryMatchesTable1) {
  const auto rows = f_.hardware_summary();
  ASSERT_GE(rows.size(), 6u);
  bool has_cores = false, has_switches = false, has_storage = false;
  for (const auto& r : rows) {
    if (r.value.find("750,080") != std::string::npos) has_cores = true;
    if (r.value.find("768") != std::string::npos) has_switches = true;
    if (r.value.find("13.6 PB") != std::string::npos) has_storage = true;
  }
  EXPECT_TRUE(has_cores);
  EXPECT_TRUE(has_switches);
  EXPECT_TRUE(has_storage);
}

TEST_F(FacilityTest, PredictedCabinetPowerMatchesPaperLevels) {
  // The planning estimates must land near the three published means at the
  // ~90% utilisation the service runs at.
  const double base =
      f_.predicted_cabinet_power(OperatingPolicy::baseline(), 0.91).kw();
  const double perfdet =
      f_.predicted_cabinet_power(OperatingPolicy::performance_determinism(),
                                 0.91)
          .kw();
  const double lowfreq =
      f_.predicted_cabinet_power(OperatingPolicy::low_frequency_default(),
                                 0.91)
          .kw();
  EXPECT_NEAR(base, 3220.0, 3220.0 * 0.03);
  EXPECT_NEAR(perfdet, 3010.0, 3010.0 * 0.03);
  EXPECT_NEAR(lowfreq, 2530.0, 2530.0 * 0.05);
  EXPECT_GT(base, perfdet);
  EXPECT_GT(perfdet, lowfreq);
}

TEST_F(FacilityTest, PredictedCabinetPowerMatchesSimulatedBaseline) {
  // The steady-state estimate against the simulated facility at the same
  // utilisation: archer2-baseline's window mean, predicted at that run's
  // own mean utilisation.  Measured: 3,249.89 kW simulated, 3,249.69 kW
  // predicted at u = 0.9132 (0.2 kW, 0.006 % apart).  The band is 0.5 %,
  // a sixth of the paper band above.
  const ScenarioSpec spec = load_named_scenario("archer2-baseline");
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  const SimTime a = spec.window_start;
  const SimTime b = spec.window_end;
  const double simulated =
      sim->telemetry().series(sim->cabinet_channel()).slice(a, b).mean();
  const double u = sim->mean_utilisation(a, b);
  const double predicted = assembly.facility()
                               .predicted_cabinet_power(spec.policy, u)
                               .kw();
  EXPECT_NEAR(predicted, simulated, simulated * 0.005)
      << "utilisation " << u;
}

TEST_F(FacilityTest, PredictedPowerMonotoneInUtilisation) {
  const OperatingPolicy p = OperatingPolicy::baseline();
  double prev = 0.0;
  for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double kw = f_.predicted_cabinet_power(p, u).kw();
    EXPECT_GT(kw, prev);
    prev = kw;
  }
  EXPECT_THROW(f_.predicted_cabinet_power(p, 1.2), InvalidArgument);
}

TEST_F(FacilityTest, MeanSlowdownOrdering) {
  // Baseline has no slowdown vs itself; each successive lever costs more.
  EXPECT_NEAR(f_.mean_slowdown(OperatingPolicy::baseline()), 0.0, 1e-12);
  const double perfdet =
      f_.mean_slowdown(OperatingPolicy::performance_determinism());
  const double lowfreq =
      f_.mean_slowdown(OperatingPolicy::low_frequency_default());
  OperatingPolicy no_revert = OperatingPolicy::low_frequency_default();
  no_revert.auto_revert_enabled = false;
  const double no_revert_slow = f_.mean_slowdown(no_revert);
  EXPECT_GT(perfdet, 0.0);
  EXPECT_LT(perfdet, 0.011);  // <= 1% (paper Table 3)
  EXPECT_GT(lowfreq, perfdet);
  EXPECT_LT(lowfreq, 0.12);
  EXPECT_GT(no_revert_slow, lowfreq);  // reverting protects performance
}

TEST_F(FacilityTest, AutoRevertLimitsWorstCaseSlowdown) {
  const OperatingPolicy policy = OperatingPolicy::low_frequency_default();
  for (const auto* app : f_.catalog().production_mix()) {
    JobSpec probe;
    const PState ps = policy.resolve_pstate(*app, probe);
    const double slowdown =
        app->expected_slowdown(policy.bios_mode, ps);
    // No production app may exceed the 10% threshold plus the ~0.3%
    // determinism cost once the revert rule is applied.
    EXPECT_LT(slowdown, 0.105) << app->name();
  }
}

TEST_F(FacilityTest, SimConfigCarriesFacilitySettings) {
  const auto cfg = f_.sim_config(123);
  EXPECT_EQ(cfg.inventory.compute_nodes, 5860u);
  EXPECT_EQ(cfg.seed, 123u);
  EXPECT_NEAR(cfg.gen.offered_load, 0.91, 1e-12);
}

TEST_F(FacilityTest, CustomFacilityValidatesFabric) {
  FacilityInventory inv;
  inv.switches = 100;  // does not match the dragonfly geometry
  EXPECT_THROW(Facility("bad", inv, NodePowerParams{}, DragonflyParams{},
                        WorkloadGenParams{}),
               InvalidArgument);
}


TEST(TestbedFacility, SmallMachineSamePhysics) {
  const Facility tb = Facility::testbed();
  EXPECT_EQ(tb.inventory().compute_nodes, 512u);
  EXPECT_EQ(tb.fabric().params().total_switches(), 64u);
  // Same calibrated node physics as the flagship.
  const Facility a2 = Facility::archer2();
  EXPECT_DOUBLE_EQ(tb.node_params().idle.w(), a2.node_params().idle.w());
  const double tb_draw =
      tb.catalog().at("VASP CdTe")
          .node_draw(DeterminismMode::kPerformanceDeterminism,
                     pstates::kHighTurbo)
          .w();
  const double a2_draw =
      a2.catalog().at("VASP CdTe")
          .node_draw(DeterminismMode::kPerformanceDeterminism,
                     pstates::kHighTurbo)
          .w();
  EXPECT_DOUBLE_EQ(tb_draw, a2_draw);
  // It simulates end to end.
  FacilitySimulator sim(tb.catalog(), tb.sim_config(5));
  const SimTime t0 = sim_time_from_date({2022, 6, 1});
  sim.run(t0, t0 + Duration::days(3.0));
  EXPECT_GT(sim.completed().size(), 50u);
}

}  // namespace
}  // namespace hpcem
