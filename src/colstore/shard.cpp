#include "colstore/shard.hpp"

#include <algorithm>
#include <fstream>

#include "colstore/bytes.hpp"
#include "util/error.hpp"

namespace hpcem::colstore {

HashRing::HashRing(std::size_t shard_count) : shard_count_(shard_count) {
  require(shard_count > 0, "HashRing: shard count must be positive");
  points_.reserve(shard_count * kVnodesPerShard);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    for (std::size_t v = 0; v < kVnodesPerShard; ++v) {
      const std::string key =
          "shard-" + std::to_string(shard) + "#" + std::to_string(v);
      points_.push_back(
          {fnv1a64(key), static_cast<std::uint32_t>(shard)});
    }
  }
  // Sort by hash; break (astronomically unlikely) hash ties by shard index
  // so the assignment stays deterministic even then.
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

std::size_t HashRing::shard_of(std::string_view scenario_id) const {
  const std::uint64_t h = fnv1a64(scenario_id);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t hash) { return p.hash < hash; });
  // Wrap: a hash past the last point lands on the first (the ring is
  // circular).
  return it == points_.end() ? points_.front().shard : it->shard;
}

JsonValue ShardManifest::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("schema", std::string(kSchema));
  v.set("hcaf_format_version", format_version);
  v.set("shard_count", shard_count);
  v.set("vnodes_per_shard", vnodes_per_shard);
  JsonValue shard_list = JsonValue::array();
  for (const ManifestShard& s : shards) {
    JsonValue sv = JsonValue::object();
    sv.set("file", s.file);
    JsonValue names = JsonValue::array();
    for (const std::string& name : s.scenarios) names.push_back(name);
    sv.set("scenarios", std::move(names));
    sv.set("bytes", static_cast<std::size_t>(s.bytes));
    sv.set("checksum_fnv1a64", s.checksum_fnv1a64);
    shard_list.push_back(std::move(sv));
  }
  v.set("shards", std::move(shard_list));
  return v;
}

std::string ShardManifest::to_json_text() const { return to_json().dump(2); }

std::string write_manifest(const ShardManifest& manifest,
                           const std::string& dir) {
  const std::string path = dir + "/manifest.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << manifest.to_json_text() << '\n';
  if (!out) throw ParseError("ShardManifest: cannot write " + path);
  return path;
}

}  // namespace hpcem::colstore
