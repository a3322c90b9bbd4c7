#include "power/fleet.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

void FleetState::powers_into(const NodePowerTerms& terms,
                             std::span<double> out) const {
  require(out.size() == silicon.size(),
          "FleetState::powers_into: output span size mismatch");
  const double* s = silicon.data();
  double* o = out.data();
  const std::size_t n = silicon.size();
  for (std::size_t i = 0; i < n; ++i) o[i] = terms.watts(s[i]);
}

Power FleetState::total_power_w(const NodePowerTerms& terms) const {
  double total = 0.0;
  for (double s : silicon) total += terms.watts(s);
  return Power::watts(total);
}

NodeFleet::NodeFleet(FleetParams params, std::uint64_t seed) {
  require(params.node_count > 0, "NodeFleet: need at least one node");
  require(params.silicon_sigma >= 0.0,
          "NodeFleet: silicon_sigma must be non-negative");
  require(params.silicon_min > 0.0 &&
              params.silicon_min <= params.silicon_max,
          "NodeFleet: bad silicon truncation bounds");
  Rng rng(seed);
  state_.silicon.reserve(params.node_count);
  for (std::size_t i = 0; i < params.node_count; ++i) {
    state_.silicon.push_back(
        std::clamp(rng.normal(1.0, params.silicon_sigma), params.silicon_min,
                   params.silicon_max));
  }
}

double NodeFleet::silicon_factor(std::size_t node) const {
  require(node < state_.silicon.size(), "NodeFleet: node index out of range");
  return state_.silicon[node];
}

Summary NodeFleet::silicon_summary() const {
  return summarize(state_.silicon);
}

double NodeFleet::mean_silicon(const std::vector<std::size_t>& nodes) const {
  require(!nodes.empty(), "NodeFleet::mean_silicon: empty node list");
  double sum = 0.0;
  for (std::size_t n : nodes) sum += silicon_factor(n);
  return sum / static_cast<double>(nodes.size());
}

std::vector<double> NodeFleet::node_powers_w(
    const NodePowerParams& node_params, const DynamicPowerProfile& profile,
    NodeActivity activity) const {
  require(activity.silicon_factor >= 0.0,
          "node_power: silicon_factor must be non-negative");
  const NodePowerTerms terms =
      node_power_terms(node_params, profile, activity);
  std::vector<double> out(state_.silicon.size());
  state_.powers_into(terms, out);
  return out;
}

Summary NodeFleet::power_summary(const NodePowerParams& node_params,
                                 const DynamicPowerProfile& profile,
                                 const NodeActivity& activity) const {
  const auto powers = node_powers_w(node_params, profile, activity);
  return summarize(powers);
}

Power NodeFleet::total_power(const NodePowerParams& node_params,
                             const DynamicPowerProfile& profile,
                             const NodeActivity& activity) const {
  require(activity.silicon_factor >= 0.0,
          "node_power: silicon_factor must be non-negative");
  return state_.total_power_w(
      node_power_terms(node_params, profile, activity));
}

}  // namespace hpcem
