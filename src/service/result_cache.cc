#include "service/result_cache.h"

#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace cspdb::service {

namespace {
// Accounted per-entry overhead beyond the answer payload: list node,
// index slot, key. A round constant keeps the arithmetic obvious.
constexpr std::size_t kEntryOverhead = 128;
}  // namespace

ResultCache::ResultCache(CacheConfig config) : config_(config) {
  if (config_.num_shards < 1) config_.num_shards = 1;
  shards_.reserve(config_.num_shards);
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = config_.max_bytes / shards_.size();
}

std::shared_ptr<const EngineAnswer> ResultCache::Lookup(
    const Fingerprint& key, RequestKind kind, int64_t /*unused*/) {
  if (!key.exact) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Entry& entry = *it->second;
  if (entry.kind != kind) {
    // Cross-kind fingerprint collision (the kind salts make this a
    // 128-bit event, but Insert replaces whatever holds the key): never
    // serve an answer variant the caller did not ask for.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("service.cache.hit");
  return entry.answer;
}

void ResultCache::Insert(const Fingerprint& key, RequestKind kind,
                         std::shared_ptr<const EngineAnswer> answer,
                         int64_t /*unused*/) {
  CSPDB_DCHECK(answer != nullptr);
  if (!key.exact) return;
  const std::size_t bytes = AnswerApproxBytes(*answer) + kEntryOverhead;
  if (bytes > shard_budget_) return;  // would evict a whole shard: skip
  Entry entry;
  entry.key = key;
  entry.kind = kind;
  entry.answer = std::move(answer);
  entry.bytes = bytes;

  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) RemoveLocked(shard, it->second);
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("service.cache.insert");
  EvictLocked(shard);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    s.bytes += shard->bytes;
    s.entries += static_cast<int64_t>(shard->lru.size());
  }
  return s;
}

void ResultCache::RemoveLocked(Shard& shard,
                               std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

void ResultCache::EvictLocked(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    auto last = std::prev(shard.lru.end());
    RemoveLocked(shard, last);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("service.cache.evict");
  }
}

}  // namespace cspdb::service
