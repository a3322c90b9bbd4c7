// Unit tests for facility-level power aggregation (Table 2 logic).
#include <gtest/gtest.h>

#include "power/facility_power.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

FacilityPowerModel make_model() {
  const NodePowerParams params;
  const auto profile = calibrate_dynamic_profile(
      params, Power::watts(470.0), 0.78, Frequency::ghz(2.8));
  return FacilityPowerModel(FacilityInventory{}, params, profile);
}

TEST(Inventory, Archer2Counts) {
  const FacilityInventory inv;
  EXPECT_EQ(inv.compute_nodes, 5860u);
  EXPECT_EQ(inv.switches, 768u);
  EXPECT_EQ(inv.cabinets, 23u);
  EXPECT_EQ(inv.cdus, 6u);
  EXPECT_EQ(inv.filesystems, 5u);
  EXPECT_EQ(inv.total_cores(), 750080u);
}

TEST(FacilityPower, IdleTotalMatchesTable2) {
  const auto model = make_model();
  // Paper Table 2: idle total 1,800 kW.
  EXPECT_NEAR(model.total_idle_power().kw(), 1800.0, 60.0);
}

TEST(FacilityPower, LoadedTotalMatchesTable2) {
  const auto model = make_model();
  NodeActivity loaded;
  loaded.load = 1.0;
  loaded.mode = DeterminismMode::kPowerDeterminism;
  loaded.power_det_uplift = 0.21;
  // Paper Table 2: loaded total 3,500 kW.
  EXPECT_NEAR(model.total_power(loaded).kw(), 3500.0, 120.0);
}

TEST(FacilityPower, ComponentTableSharesMatchPaper) {
  const auto model = make_model();
  NodeActivity loaded;
  loaded.load = 1.0;
  loaded.mode = DeterminismMode::kPowerDeterminism;
  loaded.power_det_uplift = 0.21;
  const auto rows = model.component_table(loaded);
  ASSERT_EQ(rows.size(), 5u);

  // Paper: nodes 86%, switches 6%, cabinet overheads 6%, CDUs 3%, FS 1%.
  EXPECT_EQ(rows[0].component, "Compute nodes");
  EXPECT_NEAR(rows[0].loaded_share, 0.86, 0.02);
  EXPECT_NEAR(rows[1].loaded_share, 0.06, 0.015);
  EXPECT_NEAR(rows[2].loaded_share, 0.06, 0.015);
  EXPECT_NEAR(rows[3].loaded_share, 0.03, 0.01);
  EXPECT_NEAR(rows[4].loaded_share, 0.01, 0.005);

  double share_total = 0.0;
  for (const auto& r : rows) share_total += r.loaded_share;
  EXPECT_NEAR(share_total, 1.0, 1e-9);
}

TEST(FacilityPower, ComponentTotalsAreCountTimesEach) {
  const auto model = make_model();
  NodeActivity loaded;
  loaded.load = 1.0;
  for (const auto& r : model.component_table(loaded)) {
    EXPECT_NEAR(r.idle_total.w(),
                r.idle_each.w() * static_cast<double>(r.count), 1e-6);
    EXPECT_NEAR(r.loaded_total.w(),
                r.loaded_each.w() * static_cast<double>(r.count), 1e-6);
  }
}

TEST(FacilityPower, CabinetBoundaryShareNearNinetyPercent) {
  const auto model = make_model();
  // The paper says the compute cabinets (nodes + switches + overheads) are
  // ~90% of the total system draw.
  EXPECT_GT(model.cabinet_share_loaded(), 0.88);
  EXPECT_LT(model.cabinet_share_loaded(), 0.97);
}

TEST(FacilityPower, CabinetPowerAddsFabricAndOverheads) {
  const auto model = make_model();
  const Power nodes = Power::kilowatts(2800.0);
  const Power cab = model.cabinet_power(nodes, 0.9);
  // 768 switches at 245 W + 23 cabinets at ~8.48 kW.
  EXPECT_NEAR(cab.kw(), 2800.0 + 188.2 + 195.0, 2.0);
  EXPECT_THROW(model.cabinet_power(nodes, 1.5), InvalidArgument);
}

TEST(FacilityPower, InvalidConstructionThrows) {
  const NodePowerParams params;
  const DynamicPowerProfile profile{Power::watts(100.0),
                                    Power::watts(100.0)};
  FacilityInventory inv;
  inv.compute_nodes = 0;
  EXPECT_THROW(FacilityPowerModel(inv, params, profile), InvalidArgument);
  const DynamicPowerProfile bad{Power::watts(-1.0), Power::watts(100.0)};
  EXPECT_THROW(FacilityPowerModel(FacilityInventory{}, params, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcem
