// Tests for the ARCHER2 application catalogue: structure, calibration
// against the published tables, and fleet-level consistency.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/catalog.hpp"

namespace hpcem {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);
};

TEST_F(CatalogTest, ContainsAllPaperBenchmarks) {
  for (const char* name :
       {"CASTEP Al Slab", "CP2K H2O 2048", "GROMACS 1400k",
        "LAMMPS Ethanol", "Nektar++ TGV 128 DoF", "ONETEP hBN-BP-hBN",
        "VASP CdTe", "VASP TiO2", "OpenSBLI TGV 1024"}) {
    EXPECT_TRUE(cat_.contains(name)) << name;
  }
}

TEST_F(CatalogTest, Table4HasSevenRows) {
  EXPECT_EQ(cat_.benchmarks_for_table(4).size(), 7u);
}

TEST_F(CatalogTest, Table3HasThreeRows) {
  EXPECT_EQ(cat_.benchmarks_for_table(3).size(), 3u);
}

TEST_F(CatalogTest, CastepAppearsInBothTables) {
  const auto t3 = cat_.reference("CASTEP Al Slab", 3);
  const auto t4 = cat_.reference("CASTEP Al Slab", 4);
  ASSERT_TRUE(t3.has_value());
  ASSERT_TRUE(t4.has_value());
  EXPECT_EQ(t3->nodes, 16u);
  EXPECT_EQ(t4->nodes, 4u);
  EXPECT_EQ(cat_.references("CASTEP Al Slab").size(), 2u);
}

TEST_F(CatalogTest, ProductionAppsHaveNoReferences) {
  EXPECT_TRUE(cat_.references("VASP (production)").empty());
  EXPECT_FALSE(cat_.reference("VASP (production)", 4).has_value());
}

TEST_F(CatalogTest, UnknownAppThrows) {
  EXPECT_THROW(cat_.at("No Such Code"), InvalidArgument);
  EXPECT_THROW(cat_.references("No Such Code"), InvalidArgument);
}

TEST_F(CatalogTest, DuplicateNameRejected) {
  ApplicationSpec s;
  s.name = "VASP CdTe";
  s.loaded_node_w = Power::watts(470.0);
  s.power_ratio_2ghz = 0.85;
  EXPECT_THROW(cat_.add(s, np_), InvalidArgument);
}

TEST_F(CatalogTest, Table4CalibrationReproducesPublishedRatios) {
  // The heart of the reproduction: for every Table 4 entry, the model's
  // perf and energy ratios at 2.0 GHz vs turbo must equal the published
  // values to within rounding (the spec was inverted from them).
  for (const auto* app : cat_.benchmarks_for_table(4)) {
    const auto ref = cat_.reference(app->name(), 4);
    ASSERT_TRUE(ref.has_value());
    const auto mode = DeterminismMode::kPerformanceDeterminism;
    const double perf = app->perf_ratio(mode, pstates::kMid, mode,
                                        pstates::kHighTurbo);
    const double energy = app->energy_ratio(mode, pstates::kMid, mode,
                                            pstates::kHighTurbo);
    EXPECT_NEAR(perf, ref->perf_ratio, 0.005) << app->name();
    EXPECT_NEAR(energy, ref->energy_ratio, 0.005) << app->name();
  }
}

TEST_F(CatalogTest, Table3CalibrationReproducesPublishedEnergyRatios) {
  for (const auto* app : cat_.benchmarks_for_table(3)) {
    const auto ref = cat_.reference(app->name(), 3);
    ASSERT_TRUE(ref.has_value());
    const double energy = app->energy_ratio(
        DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo,
        DeterminismMode::kPowerDeterminism, pstates::kHighTurbo);
    EXPECT_NEAR(energy, ref->energy_ratio, 0.005) << app->name();
    const double perf = app->perf_ratio(
        DeterminismMode::kPerformanceDeterminism, pstates::kHighTurbo,
        DeterminismMode::kPowerDeterminism, pstates::kHighTurbo);
    // Paper: "1% or less" performance impact.
    EXPECT_GE(perf, 0.985) << app->name();
    EXPECT_LE(perf, 1.0) << app->name();
  }
}

TEST_F(CatalogTest, ProductionMixCoversMajorResearchAreas) {
  const auto mix = cat_.production_mix();
  EXPECT_GE(mix.size(), 10u);
  bool materials = false, climate = false, bio = false, engineering = false;
  for (const auto* app : mix) {
    switch (app->spec().area) {
      case ScienceArea::kMaterials: materials = true; break;
      case ScienceArea::kClimateOcean: climate = true; break;
      case ScienceArea::kBiomolecular: bio = true; break;
      case ScienceArea::kEngineering: engineering = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(materials);
  EXPECT_TRUE(climate);
  EXPECT_TRUE(bio);
  EXPECT_TRUE(engineering);
}

TEST_F(CatalogTest, FleetLoadedDrawMatchesTable2Anchor) {
  // Mix-average loaded node draw under the baseline configuration (power
  // determinism + turbo) must sit near Table 2's 0.51 kW.
  const double w = cat_.mix_average([](const ApplicationModel& a) {
    return a.node_draw(DeterminismMode::kPowerDeterminism,
                       pstates::kHighTurbo)
        .w();
  });
  EXPECT_NEAR(w, 510.0, 15.0);
}

TEST_F(CatalogTest, FleetPerfDetDrawDropsSixToTenPercent) {
  const double baseline = cat_.mix_average([](const ApplicationModel& a) {
    return a.node_draw(DeterminismMode::kPowerDeterminism,
                       pstates::kHighTurbo)
        .w();
  });
  const double perfdet = cat_.mix_average([](const ApplicationModel& a) {
    return a.node_draw(DeterminismMode::kPerformanceDeterminism,
                       pstates::kHighTurbo)
        .w();
  });
  const double drop = 1.0 - perfdet / baseline;
  EXPECT_GT(drop, 0.05);
  EXPECT_LT(drop, 0.11);
}

TEST_F(CatalogTest, AllMixEntriesEnergyImproveAtTwoGhz) {
  // Paper: "All the application benchmarks are more energy efficient at
  // 2.0 GHz" — enforce the same for the production mix models.
  for (const auto* app : cat_.production_mix()) {
    const auto mode = DeterminismMode::kPerformanceDeterminism;
    const double e = app->energy_ratio(mode, pstates::kMid, mode,
                                       pstates::kHighTurbo);
    EXPECT_LT(e, 1.0) << app->name();
    EXPECT_GT(e, 0.7) << app->name();
  }
}

TEST_F(CatalogTest, MixAverageThrowsOnEmptyCatalog) {
  const AppCatalog empty;
  EXPECT_THROW(
      empty.mix_average([](const ApplicationModel&) { return 1.0; }),
      StateError);
}

}  // namespace
}  // namespace hpcem
