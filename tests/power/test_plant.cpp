// Unit tests for the plant power models (switches, cabinets, CDUs, FS).
#include <gtest/gtest.h>

#include "power/plant.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(SwitchPower, FlatRangeMatchesPaper) {
  // The paper: "power draw of interconnect switches is steady at 200-250 W
  // irrespective of system load".
  const SwitchPowerModel m;
  EXPECT_DOUBLE_EQ(m.power(0.0).w(), 200.0);
  EXPECT_DOUBLE_EQ(m.power(1.0).w(), 250.0);
  EXPECT_DOUBLE_EQ(m.power(0.5).w(), 225.0);
  // "Steady ... irrespective of system load": at most a 25% swing.
  EXPECT_LE(m.power(1.0).w() / m.power(0.0).w(), 1.25);
}

TEST(SwitchPower, InvalidLoadThrows) {
  const SwitchPowerModel m;
  EXPECT_THROW(m.power(-0.1), InvalidArgument);
  EXPECT_THROW(m.power(1.1), InvalidArgument);
}

TEST(CabinetOverhead, RangeMatchesTable2) {
  const CabinetOverheadModel m;
  // 23 cabinets: idle ~150 kW, loaded ~200 kW.
  EXPECT_NEAR(m.power(0.0).kw() * 23.0, 150.0, 1.0);
  EXPECT_NEAR(m.power(1.0).kw() * 23.0, 200.0, 1.0);
}

TEST(CduPower, ConstantRegardlessOfLoad) {
  const CduPowerModel m;
  EXPECT_DOUBLE_EQ(m.power(0.0).kw(), 16.0);
  EXPECT_DOUBLE_EQ(m.power(1.0).kw(), 16.0);
}

TEST(FilesystemPower, ConstantRegardlessOfLoad) {
  const FilesystemPowerModel m;
  EXPECT_DOUBLE_EQ(m.power(0.0).kw(), 8.0);
  EXPECT_DOUBLE_EQ(m.power(1.0).kw(), 8.0);
}

}  // namespace
}  // namespace hpcem
