// Fingerprint-keyed result cache: a sharded LRU with a byte-accounted
// memory budget. Keys are canonical fingerprints (service/fingerprint.h),
// values are engine answers in canonical space, so every request
// isomorphic to a cached one hits regardless of its variable labeling.
//
// Negative results (UNSAT instances, empty answer sets, false
// containments) are cached like any other complete answer — repetitive
// workloads repeat their misses too.
//
// No entry expires and none is invalidated: the cache is content
// addressed. A key fingerprints the whole canonical request (a CSP up to
// isomorphism; a query together with its database; a program together
// with its EDB), and every answer is a function of the request alone, so
// a changed input is a different key and a resident entry cannot go
// stale. Only the byte budget removes entries, least recently used
// first.
//
// Thread safety: fully thread-safe. Shard mutexes are leaf locks (nothing
// is called while holding one), keyed by the fingerprint's low word.

#ifndef CSPDB_SERVICE_RESULT_CACHE_H_
#define CSPDB_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "service/fingerprint.h"
#include "service/request.h"
#include "util/sync.h"

namespace cspdb::service {

struct CacheConfig {
  /// Total byte budget across all shards. Eviction keeps the accounted
  /// footprint (answer bytes + per-entry overhead) at or under this.
  std::size_t max_bytes = 64u << 20;

  /// Shard count (clamped to >= 1). More shards, less lock contention.
  int num_shards = 16;
};

/// Point-in-time counters (monotonic except bytes/entries).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;       ///< budget-driven removals
  std::size_t bytes = 0;       ///< currently accounted bytes
  int64_t entries = 0;         ///< currently resident entries
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached answer for `key`, or nullptr on miss. Refreshes
  /// LRU position. Inexact fingerprints never hit (they are
  /// process-unique by construction, but the fast-path check keeps
  /// intent explicit). The trailing timestamp is ignored; servebench's
  /// replay still passes one.
  std::shared_ptr<const EngineAnswer> Lookup(const Fingerprint& key,
                                             RequestKind kind,
                                             int64_t /*unused*/ = 0);

  /// Inserts (or replaces) the entry for `key`. Entries larger than the
  /// whole budget are dropped on the floor. Inexact keys are not stored.
  /// The trailing timestamp is ignored, as in Lookup.
  void Insert(const Fingerprint& key, RequestKind kind,
              std::shared_ptr<const EngineAnswer> answer,
              int64_t /*unused*/ = 0);

  CacheStats stats() const;
  std::size_t max_bytes() const { return config_.max_bytes; }

 private:
  struct Entry {
    Fingerprint key;
    RequestKind kind;
    std::shared_ptr<const EngineAnswer> answer;
    std::size_t bytes = 0;
  };

  struct Shard {
    // Leaf lock in the serving layer's hierarchy: single-flight and
    // engine code may call into the cache, but nothing is called while
    // a shard is held.
    util::Mutex mu;
    std::list<Entry> lru CSPDB_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<Fingerprint, std::list<Entry>::iterator,
                       FingerprintHash>
        index CSPDB_GUARDED_BY(mu);
    std::size_t bytes CSPDB_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Fingerprint& key) {
    return *shards_[key.lo % shards_.size()];
  }
  // Removes `it` from `shard`.
  void RemoveLocked(Shard& shard, std::list<Entry>::iterator it)
      CSPDB_REQUIRES(shard.mu);
  // Evicts LRU entries until the shard is within its budget share.
  void EvictLocked(Shard& shard) CSPDB_REQUIRES(shard.mu);

  CacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace cspdb::service

#endif  // CSPDB_SERVICE_RESULT_CACHE_H_
