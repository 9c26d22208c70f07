#ifndef BIONAV_CACHE_QUERY_ARTIFACT_CACHE_H_
#define BIONAV_CACHE_QUERY_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/query_artifacts.h"
#include "util/keyed_singleflight.h"

namespace bionav {

/// Tuning knobs of the query-artifact cache.
struct QueryArtifactCacheOptions {
  /// Byte budget over all cached artifact bundles (MemoryFootprint-based
  /// accounting). The budget is split evenly across shards and enforced
  /// per shard by LRU eviction; the most recently inserted entry of a
  /// shard is never evicted, so a single oversized artifact can exceed its
  /// shard's slice rather than thrash. Clamped to >= 1.
  size_t max_bytes = size_t{256} << 20;
  /// Age after which a cached bundle is invalid (rebuilt on next lookup);
  /// 0 disables TTL invalidation. Age counts from insert, not last use —
  /// a popular stale entry must still refresh.
  int64_t ttl_ms = 0;
  /// Lock shards; key -> shard by hash. Clamped to [1, 64].
  size_t shards = 8;
  /// Millisecond clock for TTL accounting; tests inject a fake. Defaults
  /// to std::chrono::steady_clock. SessionManager passes its own clock
  /// down so session TTL and artifact TTL tick together.
  std::function<int64_t()> clock;
};

/// Lifetime counters of one cache instance. `bytes`/`entries` are
/// instantaneous; the rest are monotone. A "hit" is any lookup served
/// without running the builder — `singleflight_waits` counts the subset
/// that blocked on another thread's in-flight build; a "miss" ran the
/// builder itself.
struct QueryArtifactCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t singleflight_waits = 0;
  int64_t evicted_lru = 0;
  int64_t expired_ttl = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
  /// Sum over hits of the original build wall time — the work the cache
  /// amortized away.
  int64_t build_us_saved = 0;

  double hit_rate() const {
    int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Process-wide shared cache of per-query navigation artifacts, keyed by
/// NormalizeQueryKey(query). The dominant cost of a QUERY is building the
/// navigation tree; PubMed-style traffic repeats head queries heavily, so
/// one build can serve every concurrent and future session of that query.
///
/// Concurrency contract:
///  - sharded mutexes: lookups of different keys rarely contend;
///  - singleflight: concurrent GetOrBuild calls for one key run the
///    builder exactly once — the first caller builds (outside any lock),
///    the rest block on a shared_future and receive the same bundle;
///  - artifacts are ref-counted (shared_ptr): eviction unlinks a bundle
///    from the map while live sessions keep using their reference;
///  - cached bundles are immutable — every NavigationTree is complete at
///    construction, so concurrent readers never race (TSan-verified).
class QueryArtifactCache {
 public:
  using Builder = std::function<std::shared_ptr<const QueryArtifacts>()>;

  explicit QueryArtifactCache(
      QueryArtifactCacheOptions options = QueryArtifactCacheOptions());
  ~QueryArtifactCache();

  QueryArtifactCache(const QueryArtifactCache&) = delete;
  QueryArtifactCache& operator=(const QueryArtifactCache&) = delete;

  struct Lookup {
    std::shared_ptr<const QueryArtifacts> artifacts;
    /// Served without running the builder ourselves.
    bool hit = false;
    /// Hit that blocked on another caller's in-flight build.
    bool waited = false;
  };

  /// Returns the artifacts for `key`, running `builder` if (and only if)
  /// no fresh entry exists and no other caller is already building it.
  /// The builder runs outside all cache locks. A null `builder` makes it
  /// a resident-only lookup: a hit as above, else null artifacts, never
  /// waiting on a build and counting no miss.
  Lookup GetOrBuild(const std::string& key, const Builder& builder);

  /// The resident bundle for `key`, or null if absent, still building, or
  /// expired. No LRU refresh and no hit accounting — an introspection
  /// window (e.g. asserting on a bundle's response-template stats) that
  /// leaves the cache's behavior unobserved.
  std::shared_ptr<const QueryArtifacts> Peek(const std::string& key) const;

  /// Drops a resident entry; live sessions keep their references. False
  /// if the key was absent (or still building — in-flight builds are not
  /// entries yet).
  bool Invalidate(const std::string& key);

  QueryArtifactCacheStats stats() const;

 private:
  /// A built bundle; builds in flight live in Shard::building until then.
  struct Entry {
    std::shared_ptr<const QueryArtifacts> artifacts;
    size_t bytes = 0;
    /// The bundle's FixedBytes, so a hit re-reads its footprint in O(1)
    /// rather than walking the tree again.
    size_t fixed_bytes = 0;
    int64_t build_us = 0;
    int64_t inserted_ms = 0;
    /// Guarded by the owning shard's mutex.
    int64_t last_used_ms = 0;
    /// Insert sequence; the newest entry of a shard is exempt from LRU
    /// eviction so a bundle larger than the shard budget still serves.
    uint64_t sequence = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
    /// Keys whose build is in flight. Guarded by `mu`.
    KeyedSingleflight<std::shared_ptr<const QueryArtifacts>> building;
    /// Bytes of the entries in `map`. Guarded by `mu`.
    size_t resident_bytes = 0;
    uint64_t next_sequence = 0;
  };

  Shard& ShardOf(const std::string& key) const;
  int64_t NowMs() const;
  /// Drops expired entries of one shard. Requires the shard's mutex held.
  void SweepExpiredLocked(Shard& shard, int64_t now_ms);
  /// LRU-evicts ready entries of one shard until it fits its byte slice.
  /// Requires the shard's mutex held.
  void EvictShardLocked(Shard& shard);

  QueryArtifactCacheOptions options_;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mu_;
  QueryArtifactCacheStats counters_;  // bytes/entries derived live.
  int64_t bytes_ = 0;
  int64_t entries_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_CACHE_QUERY_ARTIFACT_CACHE_H_
