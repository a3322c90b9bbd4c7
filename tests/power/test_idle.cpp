// Tests for the idle-node power management model.
#include <gtest/gtest.h>

#include "power/idle.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

const Power kIdleEach = Power::watts(230.0);

TEST(IdlePower, DisabledPolicyIsPlainIdleDraw) {
  const IdlePowerPolicy off;
  EXPECT_NEAR(fleet_idle_power(kIdleEach, off, 100).kw(), 23.0, 1e-9);
}

TEST(IdlePower, SuspendReducesDraw) {
  IdlePowerPolicy on;
  on.suspend_enabled = true;
  // 70% suspended at 45 W, 30% warm at 230 W.
  const double expected = (70.0 * 45.0 + 30.0 * 230.0) / 1000.0;
  EXPECT_NEAR(fleet_idle_power(kIdleEach, on, 100).kw(), expected, 1e-9);
}

TEST(IdlePower, ValidationErrors) {
  IdlePowerPolicy bad;
  bad.suspendable_fraction = 1.5;
  EXPECT_THROW(fleet_idle_power(kIdleEach, bad, 10), InvalidArgument);
  bad = {};
  bad.suspended = Power::watts(-1.0);
  EXPECT_THROW(fleet_idle_power(kIdleEach, bad, 10), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
