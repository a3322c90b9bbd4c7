#include "serve/result_cache.hpp"

#include <bit>

#include "obs/request_context.hpp"
#include "util/error.hpp"

namespace hpcem::serve {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards) {
  require(capacity >= 1, "ResultCache: capacity must be >= 1");
  require(shards >= 1, "ResultCache: shards must be >= 1");
  const std::size_t shard_count = std::bit_ceil(shards);
  capacity_ = capacity;
  per_shard_ = (capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Guarded<Shard>>());
  }
}

std::uint64_t ResultCache::hash_key(std::string_view key) {
  // FNV-1a 64-bit: fixed constants, byte-order independent — the shard a
  // key lands on never depends on the platform or standard library.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Guarded<ResultCache::Shard>& ResultCache::shard_for(std::string_view key) {
  return *shards_[hash_key(key) & (shards_.size() - 1)];
}

std::optional<std::string> ResultCache::get(std::string_view key) {
  // Flight-recorder breadcrumb (aux: 1 = hit, 0 = miss): the cache tier
  // of the per-request trace.
  static const obs::NameId kGet = obs::intern_name("serve.cache.get");
  const auto shard = shard_for(key).lock();
  const auto it = shard->index.find(key);
  if (it == shard->index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::record_event(kGet, 0);
    return std::nullopt;
  }
  // Refresh recency: splice the node to the front (iterators and the
  // string_view key into the node stay valid).
  shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(kGet, 1);
  return it->second->second;
}

void ResultCache::put(std::string_view key, std::string value) {
  static const obs::NameId kPut = obs::intern_name("serve.cache.put");
  obs::record_event(kPut, value.size());
  const auto shard = shard_for(key).lock();
  const auto it = shard->index.find(key);
  if (it != shard->index.end()) {
    it->second->second = std::move(value);
    shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
    return;
  }
  shard->lru.emplace_front(std::string(key), std::move(value));
  shard->index.emplace(shard->lru.front().first, shard->lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (shard->lru.size() > per_shard_) {
    shard->index.erase(shard->lru.back().first);
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    s.entries += shard->lock()->lru.size();
  }
  return s;
}

}  // namespace hpcem::serve
