// Sharded LRU result cache keyed by canonical request JSON.
//
// The serving front's fast path: a repeated query must cost a lock on one
// shard and two map lookups, not a re-evaluation over the column store.
// Keys are canonical request renderings (see QueryRequest::canonical_key),
// values are complete response lines — caching bytes, not structures,
// keeps the determinism argument trivial: a hit returns exactly what the
// miss computed.
//
// Sharding: the key is hashed with FNV-1a (fixed, platform-independent)
// and the shard is the low bits, so the shard assignment is stable across
// runs and builds.  Each shard has its own mutex, LRU list and index;
// under concurrent load threads contend only when they hash to the same
// shard.  Eviction is per shard (capacity / shards entries each), strict
// least-recently-used.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/guarded.hpp"

namespace hpcem::serve {

/// Cumulative cache statistics (monotonic; readable while serving).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Thread-safe sharded LRU map from canonical request key to response.
class ResultCache {
 public:
  /// `capacity` total entries (>= 1), spread over `shards` (rounded up to
  /// a power of two; each shard holds at least one entry).
  ResultCache(std::size_t capacity, std::size_t shards);

  /// Look up a key; a hit refreshes its recency.
  [[nodiscard]] std::optional<std::string> get(std::string_view key);

  /// Insert (or refresh) a key.  Evicts the shard's least-recently-used
  /// entry when the shard is full.
  void put(std::string_view key, std::string value);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Stable 64-bit FNV-1a (exposed for tests and the bench).
  [[nodiscard]] static std::uint64_t hash_key(std::string_view key);

 private:
  struct Shard {
    /// Most-recently-used at the front.
    std::list<std::pair<std::string, std::string>> lru;
    /// Keys view into the list nodes (stable addresses).
    std::map<std::string_view,
             std::list<std::pair<std::string, std::string>>::iterator>
        index;
  };

  Guarded<Shard>& shard_for(std::string_view key);

  std::size_t capacity_;
  std::size_t per_shard_;
  std::vector<std::unique_ptr<Guarded<Shard>>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hpcem::serve
