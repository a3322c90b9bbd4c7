// Consistent-hash shard assignment and the compaction manifest.
//
// The compactor (tools/hpcem_compact) and the serving tier
// (serve::MultiStore) must agree on which shard owns a scenario id, or a
// compacted deployment would answer "unknown scenario" for data it holds.
// Both sides therefore build the SAME `HashRing` from nothing but the
// shard count: vnode points are FNV-1a hashes of "shard-<i>#<v>" and a
// scenario routes to the successor point clockwise from its own hash.
// The ring is deterministic — no RNG, no host state — so any process that
// knows the shard count reproduces the assignment exactly.
//
// `ShardManifest` is the compactor's JSON receipt: shard count, vnode
// count, per-shard file names with scenario lists and checksums.  It is
// written for people and scripts; no program reads it back, and the serve
// tier routes by the shard count alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace hpcem::colstore {

/// Deterministic consistent-hash ring over `shard_count` shards.
class HashRing {
 public:
  /// Vnodes per shard: enough to keep the spread of scenarios per shard
  /// tight at small shard counts without bloating the point list.
  static constexpr std::size_t kVnodesPerShard = 64;

  /// Build the ring.  Throws InvalidArgument for a zero shard count.
  explicit HashRing(std::size_t shard_count);

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// The shard owning `scenario_id`: the shard of the first ring point at
  /// or clockwise after fnv1a64(scenario_id), wrapping at the top.
  [[nodiscard]] std::size_t shard_of(std::string_view scenario_id) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };

  std::size_t shard_count_;
  std::vector<Point> points_;  ///< sorted by hash (ties by shard index)
};

/// One shard's entry in the compaction manifest.
struct ManifestShard {
  std::string file;  ///< file name relative to the manifest's directory
  /// Scenario ids in this shard, in the shard file's order.
  std::vector<std::string> scenarios;
  std::uint64_t bytes = 0;
  /// FNV-1a 64 of the whole shard file, hex without prefix.
  std::string checksum_fnv1a64;
};

/// JSON receipt written next to the shard files by `hpcem_compact`.
struct ShardManifest {
  static constexpr std::string_view kSchema = "hpcem.hcaf_manifest.v1";

  int format_version = 0;  ///< HCAF format version of the shard files
  std::size_t shard_count = 0;
  std::size_t vnodes_per_shard = 0;
  std::vector<ManifestShard> shards;

  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] std::string to_json_text() const;
};

/// Write `manifest.json` under `dir`; returns the path.  Throws ParseError
/// on I/O failure.
std::string write_manifest(const ShardManifest& manifest,
                           const std::string& dir);

}  // namespace hpcem::colstore
