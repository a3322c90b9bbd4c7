// Sharded store tier: one routing surface over N frozen ArtifactStores.
//
// A compacted deployment serves from several HCAF shards (plus optionally
// a JSON store); `MultiStore` presents them to the query engine as one
// collection; a single store is the one-shard case.  Lookups route
// through the SAME consistent-hash ring the compactor used to assign
// scenarios (colstore/shard.hpp), so the common case is one hash plus one
// map lookup; a miss on the ring-predicted shard falls back to probing
// every shard, which keeps routing correct even for deployments whose
// store layout does not match the ring (a hand-assembled mix, or a JSON
// side store).
//
// Like its stores, a MultiStore is frozen once the front starts:
// every accessor is const, and attach-time validation rejects a scenario
// id present in two shards — the one configuration that would make
// answers depend on probe order.
//
// Determinism contract: `scenario_names()` merges the shards' sorted name
// lists into one sorted list, and every lookup is by exact name — so a
// query engine produces byte-identical responses for any shard count
// holding the same scenarios.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "colstore/shard.hpp"
#include "serve/artifact_store.hpp"

namespace hpcem::serve {

/// Immutable-after-setup routing layer over one or more ArtifactStores.
class MultiStore {
 public:
  MultiStore() = default;

  /// Attach a non-owning shard (must outlive this MultiStore).  Throws
  /// DuplicateScenarioError when the shard holds a scenario id an earlier
  /// shard already holds.
  void attach(const ArtifactStore& store);
  /// Attach an owning shard.
  void adopt(std::shared_ptr<const ArtifactStore> store);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const ArtifactStore& shard(std::size_t i) const;

  /// Scenario count summed over every shard.
  [[nodiscard]] std::size_t scenario_count() const;
  /// Retained series samples summed over every shard.
  [[nodiscard]] std::size_t total_series_samples() const;
  /// All scenario names in lexicographic order (shards hold disjoint
  /// sets, so this is a plain sorted merge).
  [[nodiscard]] std::vector<std::string> scenario_names() const;

  /// Scenario by name; nullptr when absent in every shard.  Routes via
  /// the consistent-hash ring first, then probes the remaining shards.
  [[nodiscard]] const StoredScenario* find(const std::string& name) const;
  /// Scenario by name; throws InvalidArgument when absent.  The error
  /// text matches ArtifactStore::at so wire-level error responses are
  /// identical whether the deployment is sharded or not.
  [[nodiscard]] const StoredScenario& at(const std::string& name) const;

 private:
  struct Entry {
    const ArtifactStore* store = nullptr;
    std::shared_ptr<const ArtifactStore> owner;  ///< null for attach()
  };

  void add_entry(Entry entry);

  std::vector<Entry> shards_;
  /// Rebuilt on every attach: the ring for the current shard count, used
  /// as the lookup fast path.
  std::optional<colstore::HashRing> ring_;
};

}  // namespace hpcem::serve
