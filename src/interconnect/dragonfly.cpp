#include "interconnect/dragonfly.hpp"

#include "util/error.hpp"

namespace hpcem {

Dragonfly::Dragonfly(DragonflyParams params, std::size_t node_count)
    : params_(params), node_count_(node_count) {
  require(params_.groups >= 2, "Dragonfly: need at least two groups");
  require(params_.switches_per_group >= 1 && params_.nodes_per_switch >= 1 &&
              params_.global_links_per_switch >= 1,
          "Dragonfly: geometry parameters must be positive");
  require(params_.global_links_per_group() >= params_.groups - 1,
          "Dragonfly: not enough global links for all-to-all group "
          "connectivity (need a*h >= g-1)");
  require(node_count_ >= 1 && node_count_ <= params_.total_node_ports(),
          "Dragonfly: node count must fit the available node ports");
}

SwitchId Dragonfly::switch_of_node(NodeId n) const {
  require(n < node_count_, "Dragonfly::switch_of_node: node out of range");
  // Nodes are packed switch-by-switch, the Cray EX cabling order.
  return n / params_.nodes_per_switch;
}

GroupId Dragonfly::group_of_switch(SwitchId s) const {
  require(s < params_.total_switches(),
          "Dragonfly::group_of_switch: switch out of range");
  return s / params_.switches_per_group;
}

GroupId Dragonfly::group_of_node(NodeId n) const {
  return group_of_switch(switch_of_node(n));
}

GroupId Dragonfly::link_target(SwitchId s, std::size_t l) const {
  const GroupId g = group_of_switch(s);
  const std::size_t local_index = s % params_.switches_per_group;
  // Canonical layout: the a*h global links of a group cycle round-robin
  // over the other g-1 groups, so every pair of groups is linked when
  // a*h >= g-1 and the extra links spread evenly.
  const std::size_t link_index =
      local_index * params_.global_links_per_switch + l;
  const std::size_t offset = link_index % (params_.groups - 1);
  return (g + 1 + offset) % params_.groups;
}

std::vector<GroupId> Dragonfly::global_neighbours(SwitchId s) const {
  require(s < params_.total_switches(),
          "Dragonfly::global_neighbours: switch out of range");
  std::vector<GroupId> out;
  out.reserve(params_.global_links_per_switch);
  for (std::size_t l = 0; l < params_.global_links_per_switch; ++l) {
    out.push_back(link_target(s, l));
  }
  return out;
}

bool Dragonfly::groups_linked(GroupId from, GroupId to) const {
  require(from < params_.groups && to < params_.groups,
          "Dragonfly::groups_linked: group out of range");
  if (from == to) return false;
  // With the round-robin layout the first g-1 link indices already cover
  // every other group, so linkage always holds for valid geometries; scan
  // anyway so alternative layouts stay correct.
  const std::size_t base = from * params_.switches_per_group;
  for (std::size_t i = 0; i < params_.switches_per_group; ++i) {
    for (std::size_t l = 0; l < params_.global_links_per_switch; ++l) {
      if (link_target(base + i, l) == to) return true;
    }
  }
  return false;
}

SwitchId Dragonfly::gateway_switch(GroupId from, GroupId to) const {
  require(from < params_.groups && to < params_.groups && from != to,
          "Dragonfly::gateway_switch: bad group pair");
  const std::size_t base = from * params_.switches_per_group;
  for (std::size_t i = 0; i < params_.switches_per_group; ++i) {
    for (std::size_t l = 0; l < params_.global_links_per_switch; ++l) {
      if (link_target(base + i, l) == to) return base + i;
    }
  }
  throw StateError("Dragonfly::gateway_switch: groups not linked");
}

std::size_t Dragonfly::min_hops(NodeId a, NodeId b) const {
  const SwitchId sa = switch_of_node(a);
  const SwitchId sb = switch_of_node(b);
  if (sa == sb) return 0;
  const GroupId ga = group_of_switch(sa);
  const GroupId gb = group_of_switch(sb);
  if (ga == gb) return 1;  // all-to-all local links inside a group

  // Minimal inter-group route: (local to gateway) + global + (local from
  // entry), dropping local legs when the endpoint switch is the gateway.
  const SwitchId out_gw = gateway_switch(ga, gb);
  const SwitchId in_gw = gateway_switch(gb, ga);
  std::size_t hops = 1;  // the global link
  if (out_gw != sa) ++hops;
  if (in_gw != sb) ++hops;
  return hops;
}

double Dragonfly::mean_pairwise_hops(const std::vector<NodeId>& nodes) const {
  require(nodes.size() >= 2,
          "Dragonfly::mean_pairwise_hops: need at least two nodes");
  std::size_t total = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      total += min_hops(nodes[i], nodes[j]);
      ++pairs;
    }
  }
  return static_cast<double>(total) / static_cast<double>(pairs);
}

std::size_t Dragonfly::local_link_count() const {
  const std::size_t a = params_.switches_per_group;
  return params_.groups * a * (a - 1) / 2;
}

std::size_t Dragonfly::global_link_count() const {
  return params_.total_switches() * params_.global_links_per_switch;
}

}  // namespace hpcem
