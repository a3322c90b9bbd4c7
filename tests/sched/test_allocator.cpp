// Tests for the contiguous-first node allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "sched/allocator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

using Runs = std::vector<NodeRun>;

std::size_t node_total(const Runs& runs) {
  std::size_t n = 0;
  for (const NodeRun& r : runs) n += r.count;
  return n;
}

TEST(Allocator, StartsFullyFree) {
  NodeAllocator a(100);
  EXPECT_EQ(a.free_count(), 100u);
  EXPECT_EQ(a.busy_count(), 0u);
  EXPECT_EQ(a.fragment_count(), 1u);
}

TEST(Allocator, ContiguousFirstFit) {
  NodeAllocator a(100);
  const auto alloc = a.allocate(10);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(*alloc, (Runs{{0, 10}}));
  EXPECT_EQ(a.free_count(), 90u);
}

TEST(Allocator, RefusesWhenInsufficient) {
  NodeAllocator a(10);
  EXPECT_TRUE(a.allocate(8).has_value());
  EXPECT_FALSE(a.allocate(3).has_value());
  EXPECT_TRUE(a.allocate(2).has_value());
  EXPECT_EQ(a.free_count(), 0u);
}

TEST(Allocator, ReleaseCoalescesNeighbours) {
  NodeAllocator a(30);
  const auto x = *a.allocate(10);  // 0..9
  const auto y = *a.allocate(10);  // 10..19
  a.release(x);
  a.release(y);
  EXPECT_EQ(a.free_count(), 30u);
  EXPECT_EQ(a.fragment_count(), 1u);  // coalesced back to one interval
  // A full-width allocation must be contiguous again.
  EXPECT_EQ(*a.allocate(30), (Runs{{0, 30}}));
}

TEST(Allocator, ScatteredFallbackWhenFragmented) {
  NodeAllocator a(30);
  const auto x = *a.allocate(10);  // 0..9
  const auto y = *a.allocate(10);  // 10..19
  (void)y;
  const auto z = *a.allocate(10);  // 20..29
  a.release(x);
  a.release(z);
  // Free: 0..9 and 20..29 (two fragments); a 15-node job must scatter,
  // taking the lowest interval whole and the rest from the next one.
  EXPECT_EQ(a.fragment_count(), 2u);
  const auto w = a.allocate(15);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, (Runs{{0, 10}, {20, 5}}));
  EXPECT_EQ(a.free_count(), 5u);
  EXPECT_EQ(a.fragment_count(), 1u);
}

TEST(Allocator, DoubleReleaseDetected) {
  NodeAllocator a(10);
  const auto x = *a.allocate(4);
  a.release(x);
  EXPECT_THROW(a.release(x), InvalidArgument);
}

TEST(Allocator, ReleaseValidation) {
  NodeAllocator a(10);
  const auto x = *a.allocate(4);
  (void)x;
  EXPECT_THROW(a.release(Runs{{1, 1}, {1, 1}}), InvalidArgument);
  // Overlapping runs within one release, in either order.
  EXPECT_THROW(a.release(Runs{{0, 3}, {2, 2}}), InvalidArgument);
  EXPECT_THROW(a.release(Runs{{2, 2}, {0, 3}}), InvalidArgument);
  // Disjoint but descending runs.
  EXPECT_THROW(a.release(Runs{{3, 1}, {0, 1}}), InvalidArgument);
  EXPECT_THROW(a.release(Runs{{99, 1}}), InvalidArgument);
  EXPECT_THROW(a.release(Runs{{8, 3}}), InvalidArgument);  // runs off the end
  EXPECT_THROW(a.release(Runs{{1, 0}}), InvalidArgument);
  EXPECT_THROW(a.release(Runs{}), InvalidArgument);
  // The rejected releases left the pool untouched.
  EXPECT_EQ(a.free_count(), 6u);
  EXPECT_EQ(a.fragment_count(), 1u);
}

TEST(Allocator, ZeroSizedPoolOrRequestRejected) {
  EXPECT_THROW(NodeAllocator(0), InvalidArgument);
  NodeAllocator a(5);
  EXPECT_THROW(a.allocate(0), InvalidArgument);
}

TEST(Allocator, RandomChurnConservesNodes) {
  // Property: across arbitrary allocate/release interleavings the free
  // count plus outstanding allocations always equals the pool size and no
  // node is handed out twice.
  NodeAllocator a(512);
  Rng rng(99);
  std::vector<Runs> live;
  std::size_t outstanding = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && (rng.bernoulli(0.45) || a.free_count() < 32)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      outstanding -= node_total(live[idx]);
      a.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const auto want =
          static_cast<std::size_t>(rng.uniform_int(1, 32));
      const auto got = a.allocate(want);
      if (got) {
        EXPECT_EQ(node_total(*got), want);
        outstanding += want;
        live.push_back(*got);
      }
    }
    ASSERT_EQ(a.free_count() + outstanding, 512u);
    ASSERT_EQ(a.busy_count(), outstanding);
  }
  // No duplicates across live allocations.
  std::set<NodeId> all;
  for (const auto& runs : live) {
    for (NodeId n : expand(runs)) {
      ASSERT_TRUE(all.insert(n).second) << "node double-allocated";
    }
  }
}

TEST(Allocator, FullDrainRestoresSingleFragment) {
  NodeAllocator a(64);
  Rng rng(7);
  std::vector<Runs> live;
  for (int i = 0; i < 20; ++i) {
    const auto got = a.allocate(
        static_cast<std::size_t>(rng.uniform_int(1, 8)));
    if (got) live.push_back(*got);
  }
  for (const auto& v : live) a.release(v);
  EXPECT_EQ(a.free_count(), 64u);
  EXPECT_EQ(a.fragment_count(), 1u);
}

/// Per-node reference for the placement rule: the lowest maximal free
/// interval that holds the whole request, otherwise the lowest free nodes.
class BitmapModel {
 public:
  explicit BitmapModel(std::size_t n) : free_(n, true) {}

  /// Callers ensure `count` nodes are free.
  std::vector<NodeId> allocate(std::size_t count) {
    std::vector<NodeId> out;
    // First fit over the maximal free intervals [i, j).
    for (std::size_t i = 0; i < free_.size() && out.empty();) {
      std::size_t j = i;
      while (j < free_.size() && free_[j]) ++j;
      if (j - i >= count) {
        for (std::size_t k = i; k < i + count; ++k) out.push_back(k);
      }
      i = j + 1;
    }
    // Otherwise the lowest `count` free nodes.
    if (out.empty()) {
      for (std::size_t i = 0; out.size() < count; ++i) {
        if (free_[i]) out.push_back(i);
      }
    }
    for (NodeId n : out) free_[n] = false;
    return out;
  }

  void release(const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) free_[n] = true;
  }

  [[nodiscard]] std::size_t free_count() const {
    return static_cast<std::size_t>(
        std::count(free_.begin(), free_.end(), true));
  }

  [[nodiscard]] std::size_t fragment_count() const {
    std::size_t fragments = 0;
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i] && (i == 0 || !free_[i - 1])) ++fragments;
    }
    return fragments;
  }

 private:
  std::vector<bool> free_;
};

TEST(Allocator, MatchesPerNodeModelUnderFragmentedChurn) {
  // The paper's 5,860-node machine held near 92 % busy by a seeded churn of
  // log-uniform widths 1-1,024: the run allocator must hand out exactly the
  // nodes the per-node model picks and keep the same fragment count.
  constexpr std::size_t kNodes = 5860;
  constexpr std::size_t kTargetBusy = kNodes * 92 / 100;
  NodeAllocator a(kNodes);
  BitmapModel model(kNodes);
  Rng rng(2023);
  std::vector<Runs> live;
  std::size_t scattered = 0;
  std::size_t max_fragments = 0;
  for (int step = 0; step < 12000; ++step) {
    const bool release = !live.empty() && (a.busy_count() >= kTargetBusy ||
                                           rng.bernoulli(0.3));
    if (release) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      model.release(expand(live[idx]));
      a.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const auto want = static_cast<std::size_t>(
          std::floor(std::exp2(10.0 * rng.uniform())));
      const auto got = a.allocate(want);
      if (want > model.free_count()) {
        ASSERT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        ASSERT_EQ(expand(*got), model.allocate(want)) << "step " << step;
        if (got->size() > 1) ++scattered;
        live.push_back(*got);
      }
    }
    ASSERT_EQ(a.free_count(), model.free_count()) << "step " << step;
    ASSERT_EQ(a.fragment_count(), model.fragment_count()) << "step " << step;
    max_fragments = std::max(max_fragments, a.fragment_count());
  }
  // The churn really exercised the fragmented path.
  EXPECT_GT(scattered, 100u);
  EXPECT_GT(max_fragments, 20u);
}

}  // namespace
}  // namespace hpcem
