// Tests for the dragonfly topology and fabric power.
#include <gtest/gtest.h>

#include <set>

#include "interconnect/dragonfly.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

Dragonfly archer2_fabric() { return Dragonfly(DragonflyParams{}, 5860); }

TEST(DragonflyParams, Archer2Counts) {
  const DragonflyParams p;
  EXPECT_EQ(p.total_switches(), 768u);
  EXPECT_EQ(p.total_node_ports(), 6144u);
  EXPECT_GE(p.global_links_per_group(), p.groups - 1);
}

TEST(Dragonfly, ConstructionValidatesGeometry) {
  // Not enough global links: 8 groups need a*h >= 7 but 2*1 = 2.
  DragonflyParams bad;
  bad.groups = 8;
  bad.switches_per_group = 2;
  bad.global_links_per_switch = 1;
  EXPECT_THROW(Dragonfly(bad, 10), InvalidArgument);

  // More nodes than ports.
  EXPECT_THROW(Dragonfly(DragonflyParams{}, 7000), InvalidArgument);
  // Degenerate group count.
  DragonflyParams one;
  one.groups = 1;
  EXPECT_THROW(Dragonfly(one, 8), InvalidArgument);
}

TEST(Dragonfly, NodeToSwitchToGroupMapping) {
  const Dragonfly d = archer2_fabric();
  EXPECT_EQ(d.switch_of_node(0), 0u);
  EXPECT_EQ(d.switch_of_node(7), 0u);
  EXPECT_EQ(d.switch_of_node(8), 1u);
  EXPECT_EQ(d.group_of_switch(0), 0u);
  EXPECT_EQ(d.group_of_switch(31), 0u);
  EXPECT_EQ(d.group_of_switch(32), 1u);
  EXPECT_EQ(d.group_of_node(8 * 32), 1u);
  EXPECT_THROW(d.switch_of_node(5860), InvalidArgument);
  EXPECT_THROW(d.group_of_switch(768), InvalidArgument);
}

TEST(Dragonfly, EveryGroupPairIsLinked) {
  const Dragonfly d = archer2_fabric();
  for (GroupId a = 0; a < 24; ++a) {
    for (GroupId b = 0; b < 24; ++b) {
      if (a == b) {
        EXPECT_FALSE(d.groups_linked(a, b));
      } else {
        ASSERT_TRUE(d.groups_linked(a, b)) << a << "->" << b;
        const SwitchId gw = d.gateway_switch(a, b);
        EXPECT_EQ(d.group_of_switch(gw), a);
      }
    }
  }
}

TEST(Dragonfly, GlobalNeighboursAreOtherGroups) {
  const Dragonfly d = archer2_fabric();
  for (SwitchId s = 0; s < 768; s += 37) {
    for (GroupId g : d.global_neighbours(s)) {
      EXPECT_NE(g, d.group_of_switch(s));
      EXPECT_LT(g, 24u);
    }
  }
}

TEST(Dragonfly, MinHopsCases) {
  const Dragonfly d = archer2_fabric();
  // Same switch.
  EXPECT_EQ(d.min_hops(0, 7), 0u);
  // Same group, different switches.
  EXPECT_EQ(d.min_hops(0, 8), 1u);
  // Different groups: at most local + global + local.
  const NodeId other_group = 8 * 32 * 3;  // group 3
  const std::size_t h = d.min_hops(0, other_group);
  EXPECT_GE(h, 1u);
  EXPECT_LE(h, 3u);
  // Symmetric-ish bound holds in both directions.
  EXPECT_LE(d.min_hops(other_group, 0), 3u);
}

TEST(Dragonfly, MinHopsDiameterBound) {
  const Dragonfly d = archer2_fabric();
  // Sweep a coarse grid of pairs: the dragonfly diameter is 3 links.
  for (NodeId a = 0; a < 5860; a += 731) {
    for (NodeId b = 0; b < 5860; b += 577) {
      ASSERT_LE(d.min_hops(a, b), 3u) << a << "," << b;
    }
  }
}

TEST(Dragonfly, MeanPairwiseHopsPrefersCompactPlacement) {
  const Dragonfly d = archer2_fabric();
  std::vector<NodeId> compact, scattered;
  for (NodeId i = 0; i < 64; ++i) {
    compact.push_back(i);                 // 8 adjacent switches, 1 group
    scattered.push_back(i * 91);          // spread across groups
  }
  EXPECT_LT(d.mean_pairwise_hops(compact),
            d.mean_pairwise_hops(scattered));
  EXPECT_THROW(d.mean_pairwise_hops({0}), InvalidArgument);
}

TEST(Dragonfly, LinkInventory) {
  const Dragonfly d = archer2_fabric();
  // Local: 24 groups x C(32,2); global: one per switch.
  EXPECT_EQ(d.local_link_count(), 24u * 32u * 31u / 2u);
  EXPECT_EQ(d.global_link_count(), 768u);
}

}  // namespace
}  // namespace hpcem
