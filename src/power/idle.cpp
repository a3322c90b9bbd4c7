#include "power/idle.hpp"

#include "util/error.hpp"

namespace hpcem {

namespace {
void validate(const IdlePowerPolicy& p) {
  require(p.suspended.w() >= 0.0,
          "IdlePowerPolicy: suspended draw must be non-negative");
  require(p.suspendable_fraction >= 0.0 && p.suspendable_fraction <= 1.0,
          "IdlePowerPolicy: suspendable_fraction must be in [0, 1]");
}
}  // namespace

Power fleet_idle_power(Power idle_each, const IdlePowerPolicy& policy,
                       std::size_t idle_nodes) {
  validate(policy);
  const auto n = static_cast<double>(idle_nodes);
  if (!policy.suspend_enabled) return idle_each * n;
  const double suspended = n * policy.suspendable_fraction;
  const double warm = n - suspended;
  return idle_each * warm + policy.suspended * suspended;
}

}  // namespace hpcem
