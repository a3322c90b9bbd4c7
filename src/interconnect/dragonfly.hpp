// Dragonfly interconnect topology (Slingshot-style, paper Table 1).
//
// ARCHER2's fabric is 768 Slingshot switches in a dragonfly: switches are
// partitioned into groups with all-to-all local connectivity inside a group
// and a near-uniform spread of global links between groups.  The model
// captures what the paper's analysis needs:
//  * the component inventory (switch count feeds the facility's switch
//    power source);
//  * routing hop counts between nodes, which determine how sensitive an
//    application's communication fraction is to job placement (used by the
//    placement-quality example and ablations).
//
// Geometry defaults reproduce the ARCHER2 scale: 24 groups x 32 switches x
// 8 node ports = 768 switches / 6144 node ports, hosting the 5860 nodes.
#pragma once

#include <cstddef>
#include <vector>

namespace hpcem {

/// Dragonfly geometry parameters.
struct DragonflyParams {
  std::size_t groups = 24;             ///< g
  std::size_t switches_per_group = 32; ///< a
  std::size_t nodes_per_switch = 8;    ///< p
  std::size_t global_links_per_switch = 1;  ///< h

  [[nodiscard]] std::size_t total_switches() const {
    return groups * switches_per_group;
  }
  [[nodiscard]] std::size_t total_node_ports() const {
    return total_switches() * nodes_per_switch;
  }
  [[nodiscard]] std::size_t global_links_per_group() const {
    return switches_per_group * global_links_per_switch;
  }
};

/// Node and switch identifiers are dense indices.
using NodeId = std::size_t;
using SwitchId = std::size_t;
using GroupId = std::size_t;

/// Immutable dragonfly topology with routing queries.
class Dragonfly {
 public:
  /// Validates feasibility: every group must be able to reach every other
  /// (a*h >= g-1) and the node count must fit the port count.
  explicit Dragonfly(DragonflyParams params, std::size_t node_count);

  [[nodiscard]] const DragonflyParams& params() const { return params_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  [[nodiscard]] SwitchId switch_of_node(NodeId n) const;
  [[nodiscard]] GroupId group_of_switch(SwitchId s) const;
  [[nodiscard]] GroupId group_of_node(NodeId n) const;

  /// Groups reachable by the global links of switch `s`, in link order.
  [[nodiscard]] std::vector<GroupId> global_neighbours(SwitchId s) const;

  /// True if some switch in `from` has a global link to `to`.
  [[nodiscard]] bool groups_linked(GroupId from, GroupId to) const;

  /// A switch in `from` carrying a global link towards `to`; throws if the
  /// groups are not directly linked (cannot happen for valid geometries).
  [[nodiscard]] SwitchId gateway_switch(GroupId from, GroupId to) const;

  /// Number of switch-to-switch link traversals on a minimal route
  /// (0 same switch, 1 same group, up to 3 for inter-group l-g-l routes).
  [[nodiscard]] std::size_t min_hops(NodeId a, NodeId b) const;

  /// Mean pairwise min_hops over all distinct node pairs in `nodes`
  /// (the placement-quality metric; lower is better).
  [[nodiscard]] double mean_pairwise_hops(
      const std::vector<NodeId>& nodes) const;

  /// Total number of local (intra-group) switch-to-switch links.
  [[nodiscard]] std::size_t local_link_count() const;
  /// Total number of global (inter-group) links (unidirectional count).
  [[nodiscard]] std::size_t global_link_count() const;

 private:
  /// Group targeted by global link `l` of switch `s` (canonical layout:
  /// links of a group cycle round-robin over the other g-1 groups).
  [[nodiscard]] GroupId link_target(SwitchId s, std::size_t l) const;

  DragonflyParams params_;
  std::size_t node_count_;
};

}  // namespace hpcem
