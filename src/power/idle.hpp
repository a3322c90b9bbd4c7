// Idle-node power management.
//
// The paper's conclusion flags the structural problem: an idle node still
// draws ~50% of a loaded node (230 W vs ~510 W), so energy efficiency
// demands near-100% utilisation.  The complementary lever — not exercised
// on ARCHER2, modelled here as an ablation — is suspending idle nodes to a
// low-power state.  The simulator's node-fleet source prices it per sample
// from the idle node count (`fleet_idle_power`); `idle-suspend.json`
// against `archer2-baseline.json` is the simulated comparison.
#pragma once

#include <cstddef>

#include "util/units.hpp"

namespace hpcem {

/// Suspend policy for idle nodes.
struct IdlePowerPolicy {
  bool suspend_enabled = false;
  /// Draw of a suspended node (S3-like: fans/BMC only).
  Power suspended = Power::watts(45.0);
  /// Fraction of idle nodes eligible for suspension; the rest stay warm as
  /// a responsiveness buffer for incoming jobs.
  double suspendable_fraction = 0.7;

  friend bool operator==(const IdlePowerPolicy&,
                         const IdlePowerPolicy&) = default;
};

/// Fleet idle draw for `idle_nodes` idle nodes under a policy.
[[nodiscard]] Power fleet_idle_power(Power idle_each,
                                     const IdlePowerPolicy& policy,
                                     std::size_t idle_nodes);

}  // namespace hpcem
