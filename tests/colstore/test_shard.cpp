// HashRing determinism/coverage and the compaction-manifest JSON text.
// The ring is the routing contract between hpcem_compact and
// serve::MultiStore: any process that knows the shard count must
// reproduce the assignment exactly.
#include "colstore/shard.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace hpcem::colstore {
namespace {

std::vector<std::string> scenario_ids(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back("figure2-rollout-rep" + std::to_string(i));
  }
  return ids;
}

TEST(HashRing, RejectsZeroCounts) {
  EXPECT_THROW(HashRing(0), InvalidArgument);
}

TEST(HashRing, SingleShardOwnsEverything) {
  const HashRing ring(1);
  for (const std::string& id : scenario_ids(100)) {
    EXPECT_EQ(ring.shard_of(id), 0u);
  }
}

TEST(HashRing, AssignmentIsDeterministicAcrossIndependentRings) {
  // The compactor and the serve tier build their rings in different
  // processes; identical parameters must yield identical routing.
  const HashRing compactor_ring(4);
  const HashRing serve_ring(4);
  for (const std::string& id : scenario_ids(500)) {
    const std::size_t shard = compactor_ring.shard_of(id);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, serve_ring.shard_of(id));
  }
}

TEST(HashRing, EveryShardReceivesWorkAtRealisticScale) {
  const std::size_t shard_count = 8;
  const HashRing ring(shard_count);
  std::vector<std::size_t> per_shard(shard_count, 0);
  const std::size_t n = 4000;
  for (const std::string& id : scenario_ids(n)) {
    ++per_shard[ring.shard_of(id)];
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Consistent hashing with 64 vnodes/shard spreads unevenly but never
    // starves; assert a loose floor (1/16 of fair share) so the test pins
    // "every shard carries work" without over-pinning the hash.
    EXPECT_GT(per_shard[s], n / (shard_count * 16))
        << "shard " << s << " is starved";
  }
}

TEST(ShardManifest, JsonTextIsPinned) {
  // CI and people read manifest.json; its text is the whole contract.
  ShardManifest m;
  m.format_version = 2;
  m.shard_count = 2;
  m.vnodes_per_shard = 64;
  m.shards.push_back({"shard-000.hcaf", {"alpha", "mid"}, 4096,
                      "deadbeefcafef00d"});
  m.shards.push_back({"shard-001.hcaf", {"zeta"}, 2048, "0123456789abcdef"});
  EXPECT_EQ(m.to_json_text(), R"({
  "schema": "hpcem.hcaf_manifest.v1",
  "hcaf_format_version": 2,
  "shard_count": 2,
  "vnodes_per_shard": 64,
  "shards": [
    {
      "file": "shard-000.hcaf",
      "scenarios": [
        "alpha",
        "mid"
      ],
      "bytes": 4096,
      "checksum_fnv1a64": "deadbeefcafef00d"
    },
    {
      "file": "shard-001.hcaf",
      "scenarios": [
        "zeta"
      ],
      "bytes": 2048,
      "checksum_fnv1a64": "0123456789abcdef"
    }
  ]
}
)");
}

}  // namespace
}  // namespace hpcem::colstore
