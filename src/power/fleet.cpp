#include "power/fleet.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

NodeFleet::NodeFleet(FleetParams params, std::uint64_t seed) {
  require(params.node_count > 0, "NodeFleet: need at least one node");
  require(params.silicon_sigma >= 0.0,
          "NodeFleet: silicon_sigma must be non-negative");
  require(params.silicon_min > 0.0 &&
              params.silicon_min <= params.silicon_max,
          "NodeFleet: bad silicon truncation bounds");
  Rng rng(seed);
  silicon_.reserve(params.node_count);
  for (std::size_t i = 0; i < params.node_count; ++i) {
    silicon_.push_back(
        std::clamp(rng.normal(1.0, params.silicon_sigma), params.silicon_min,
                   params.silicon_max));
  }
}

double NodeFleet::silicon_factor(std::size_t node) const {
  require(node < silicon_.size(), "NodeFleet: node index out of range");
  return silicon_[node];
}

Summary NodeFleet::power_summary(const NodePowerParams& node_params,
                                 const DynamicPowerProfile& profile,
                                 const NodeActivity& activity) const {
  require(activity.silicon_factor >= 0.0,
          "node_power: silicon_factor must be non-negative");
  const NodePowerTerms terms =
      node_power_terms(node_params, profile, activity);
  std::vector<double> powers;
  powers.reserve(silicon_.size());
  for (double s : silicon_) powers.push_back(terms.watts(s));
  return summarize(powers);
}

Power NodeFleet::total_power(const NodePowerParams& node_params,
                             const DynamicPowerProfile& profile,
                             const NodeActivity& activity) const {
  require(activity.silicon_factor >= 0.0,
          "node_power: silicon_factor must be non-negative");
  const NodePowerTerms terms =
      node_power_terms(node_params, profile, activity);
  // Plain left-to-right sum: a per-node node_power() loop, bit for bit.
  double total = 0.0;
  for (double s : silicon_) total += terms.watts(s);
  return Power::watts(total);
}

}  // namespace hpcem
