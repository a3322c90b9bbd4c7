// Node allocation with contiguous-first placement.
//
// The allocator hands out node indices for jobs, preferring a single
// contiguous run (which maps to locality on the dragonfly: consecutive
// nodes share switches and groups) and falling back to scattered nodes
// when the pool is fragmented — exactly the behaviour that makes placement
// quality a function of machine load on real systems.
//
// Allocations are runs, not node lists: `allocate` returns `{first, count}`
// runs in ascending order and `release` takes them back, so the per-job
// cost scales with the number of fragments touched (usually one), not the
// job's width.  The free list is a sorted, coalesced vector of runs; a
// first-fit scan over it is a walk over contiguous memory.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "interconnect/dragonfly.hpp"

namespace hpcem {

/// The consecutive node indices [first, first + count).
struct NodeRun {
  NodeId first = 0;
  std::size_t count = 0;

  friend bool operator==(const NodeRun&, const NodeRun&) = default;
};

/// The node indices the runs cover, in run order.
[[nodiscard]] std::vector<NodeId> expand(std::span<const NodeRun> runs);

/// Free-list of node indices with interval coalescing.
class NodeAllocator {
 public:
  explicit NodeAllocator(std::size_t node_count);

  /// Allocate `count` nodes: the lowest free run that holds all of them,
  /// otherwise gathered from the lowest free runs upwards.  Returns the
  /// allocation as ascending, disjoint runs, or nullopt when fewer than
  /// `count` nodes are free.
  [[nodiscard]] std::optional<std::vector<NodeRun>> allocate(
      std::size_t count);

  /// Return an allocation to the pool.  The runs must be non-empty,
  /// ascending and disjoint (as `allocate` returns them); an empty release,
  /// a node named twice, a node out of range or a node already free
  /// (double release) throws InvalidArgument.
  void release(std::span<const NodeRun> runs);

  [[nodiscard]] std::size_t free_count() const { return free_count_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::size_t busy_count() const {
    return node_count_ - free_count_;
  }

  /// Number of maximal free intervals (1 when fully defragmented).
  [[nodiscard]] std::size_t fragment_count() const { return free_.size(); }

 private:
  void insert_run(NodeRun run);

  std::size_t node_count_;
  std::size_t free_count_;
  /// Sorted by `first`, non-overlapping, non-adjacent (coalesced).
  std::vector<NodeRun> free_;
};

}  // namespace hpcem
