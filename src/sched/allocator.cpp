#include "sched/allocator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

std::vector<NodeId> expand(std::span<const NodeRun> runs) {
  std::vector<NodeId> nodes;
  for (const NodeRun& r : runs) {
    for (std::size_t i = 0; i < r.count; ++i) nodes.push_back(r.first + i);
  }
  return nodes;
}

NodeAllocator::NodeAllocator(std::size_t node_count)
    : node_count_(node_count), free_count_(node_count) {
  require(node_count > 0, "NodeAllocator: need at least one node");
  free_.push_back({0, node_count});
}

std::optional<std::vector<NodeRun>> NodeAllocator::allocate(
    std::size_t count) {
  require(count > 0, "NodeAllocator::allocate: count must be positive");
  if (count > free_count_) return std::nullopt;
  free_count_ -= count;

  // First fit: the lowest contiguous interval that holds the whole job.
  const auto fit =
      std::find_if(free_.begin(), free_.end(),
                   [&](const NodeRun& r) { return r.count >= count; });
  if (fit != free_.end()) {
    std::vector<NodeRun> out{{fit->first, count}};
    fit->first += count;
    fit->count -= count;
    if (fit->count == 0) free_.erase(fit);
    return out;
  }

  // Fragmented: gather from the lowest intervals upwards.  Every interval
  // but the last one touched is taken whole.
  std::vector<NodeRun> out;
  std::size_t remaining = count;
  auto it = free_.begin();
  while (remaining > 0) {
    HPCEM_ASSERT(it != free_.end(), "free list exhausted despite count check");
    const std::size_t take = std::min(it->count, remaining);
    out.push_back({it->first, take});
    remaining -= take;
    if (take < it->count) {
      it->first += take;
      it->count -= take;
    } else {
      ++it;
    }
  }
  free_.erase(free_.begin(), it);
  return out;
}

void NodeAllocator::insert_run(NodeRun run) {
  // The first free interval above the run, and the one below it.
  const auto next = std::upper_bound(
      free_.begin(), free_.end(), run.first,
      [](NodeId first, const NodeRun& r) { return first < r.first; });
  const NodeId end = run.first + run.count;
  const bool joins_next = next != free_.end() && end == next->first;
  require(next == free_.end() || end <= next->first,
          "NodeAllocator::release: node already free (double release)");
  if (next != free_.begin()) {
    const auto prev = std::prev(next);
    require(prev->first + prev->count <= run.first,
            "NodeAllocator::release: node already free (double release)");
    // Coalesce with the previous interval, and through it the next one.
    if (prev->first + prev->count == run.first) {
      prev->count += run.count;
      if (joins_next) {
        prev->count += next->count;
        free_.erase(next);
      }
      return;
    }
  }
  if (joins_next) {
    next->first = run.first;
    next->count += run.count;
    return;
  }
  free_.insert(next, run);
}

void NodeAllocator::release(std::span<const NodeRun> runs) {
  require(!runs.empty(), "NodeAllocator::release: empty release");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const NodeRun& r = runs[i];
    require(r.count > 0, "NodeAllocator::release: empty run");
    require(r.first < node_count_ && r.count <= node_count_ - r.first,
            "NodeAllocator::release: node out of range");
    if (i > 0) {
      const NodeRun& prev = runs[i - 1];
      require(r.first >= prev.first + prev.count ||
                  r.first + r.count <= prev.first,
              "NodeAllocator::release: duplicate node in release");
      require(r.first > prev.first,
              "NodeAllocator::release: runs must be in ascending order");
    }
  }
  for (const NodeRun& r : runs) {
    insert_run(r);
    free_count_ += r.count;
  }
  HPCEM_ASSERT(free_count_ <= node_count_, "free count exceeds pool");
}

}  // namespace hpcem
