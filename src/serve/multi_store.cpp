#include "serve/multi_store.hpp"

#include <algorithm>

#include "obs/request_context.hpp"
#include "util/error.hpp"

namespace hpcem::serve {

void MultiStore::attach(const ArtifactStore& store) {
  add_entry(Entry{&store, nullptr});
}

void MultiStore::adopt(std::shared_ptr<const ArtifactStore> store) {
  require(store != nullptr, "MultiStore: cannot adopt a null store");
  const ArtifactStore* raw = store.get();
  add_entry(Entry{raw, std::move(store)});
}

void MultiStore::add_entry(Entry entry) {
  // A scenario id present in two shards would make answers depend on
  // probe order; reject it at attach time, naming both sources.
  for (const std::string& name : entry.store->scenario_names()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (const StoredScenario* clash = shards_[i].store->find(name)) {
        throw DuplicateScenarioError(
            "MultiStore: scenario id '" + name + "' present in shard " +
            std::to_string(i) + " (" + clash->source_file +
            ") and in the attaching shard (" +
            entry.store->at(name).source_file + ")");
      }
    }
  }
  shards_.push_back(std::move(entry));
  ring_.emplace(shards_.size());
}

const ArtifactStore& MultiStore::shard(std::size_t i) const {
  require(i < shards_.size(), "MultiStore: shard index ", i,
          " out of range (have ", shards_.size(), ")");
  return *shards_[i].store;
}

std::size_t MultiStore::scenario_count() const {
  std::size_t n = 0;
  for (const Entry& e : shards_) n += e.store->scenario_count();
  return n;
}

std::size_t MultiStore::total_series_samples() const {
  std::size_t n = 0;
  for (const Entry& e : shards_) n += e.store->total_series_samples();
  return n;
}

std::vector<std::string> MultiStore::scenario_names() const {
  std::vector<std::string> merged;
  merged.reserve(scenario_count());
  for (const Entry& e : shards_) {
    std::vector<std::string> names = e.store->scenario_names();
    const std::size_t mid = merged.size();
    merged.insert(merged.end(), std::make_move_iterator(names.begin()),
                  std::make_move_iterator(names.end()));
    std::inplace_merge(merged.begin(),
                       merged.begin() + static_cast<std::ptrdiff_t>(mid),
                       merged.end());
  }
  return merged;
}

const StoredScenario* MultiStore::find(const std::string& name) const {
  if (shards_.empty()) return nullptr;
  // Fast path: the shard the compaction ring assigned this id to.  A
  // deployment compacted with the same shard count finds every scenario
  // here; anything else falls through to the probe.
  const std::size_t hint = ring_->shard_of(name);
  if (const StoredScenario* s = shards_[hint].store->find(name)) return s;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == hint) continue;
    if (const StoredScenario* s = shards_[i].store->find(name)) return s;
  }
  return nullptr;
}

const StoredScenario& MultiStore::at(const std::string& name) const {
  // Same breadcrumb and same error text as ArtifactStore::at — the wire
  // format must not reveal whether the deployment is sharded.
  static const obs::NameId kLookup = obs::intern_name("serve.store.at");
  obs::record_event(kLookup);
  const StoredScenario* s = find(name);
  require(s != nullptr, "ArtifactStore: unknown scenario '", name, "'");
  return *s;
}

}  // namespace hpcem::serve
