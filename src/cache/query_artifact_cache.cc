#include "cache/query_artifact_cache.h"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace bionav {

namespace {

// Global mirrors of the per-cache counters_, so STATS/METRICS expose cache
// effectiveness without holding any cache's lock (same pattern as the
// session-manager metrics). Increments happen under the owning shard or
// stats mutex; the metrics are shared by every cache in the process.
Counter* CacheHits() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_qcache_hits_total",
      "QUERYs served from the query-artifact cache");
  return c;
}
Counter* CacheMisses() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_qcache_misses_total",
      "QUERYs that built their navigation artifacts");
  return c;
}
Counter* CacheWaits() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_qcache_singleflight_waits_total",
      "Cache hits that blocked on another caller's in-flight build");
  return c;
}
Counter* CacheEvictions() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_qcache_evictions_total",
      "Artifact bundles evicted by the LRU byte budget");
  return c;
}
Counter* CacheExpirations() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_qcache_expirations_total", "Artifact bundles expired by TTL");
  return c;
}
Gauge* CacheBytes() {
  static Gauge* g = GlobalMetrics().GetGauge(
      "bionav_qcache_bytes", "Resident bytes of cached query artifacts");
  return g;
}
Gauge* CacheEntries() {
  static Gauge* g = GlobalMetrics().GetGauge(
      "bionav_qcache_entries", "Resident cached query-artifact bundles");
  return g;
}
LatencyHistogram* CacheBuildHist() {
  static LatencyHistogram* h = GlobalMetrics().GetHistogram(
      "bionav_qcache_build_us", "Artifact build wall time on cache misses");
  return h;
}
LatencyHistogram* CacheSavedHist() {
  static LatencyHistogram* h = GlobalMetrics().GetHistogram(
      "bionav_qcache_build_saved_us",
      "Original build time amortized away per cache hit");
  return h;
}
LatencyHistogram* CacheWaitHist() {
  static LatencyHistogram* h = GlobalMetrics().GetHistogram(
      "bionav_qcache_singleflight_wait_us",
      "Time hits spent blocked on an in-flight build");
  return h;
}

}  // namespace

QueryArtifactCache::QueryArtifactCache(QueryArtifactCacheOptions options)
    : options_(std::move(options)) {
  if (options_.max_bytes == 0) options_.max_bytes = 1;
  options_.shards = std::clamp<size_t>(options_.shards, 1, 64);
  if (!options_.clock) options_.clock = SteadyNowMs;
  shard_budget_ = std::max<size_t>(options_.max_bytes / options_.shards, 1);
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryArtifactCache::~QueryArtifactCache() {
  // Leave the process-wide gauges: a dying cache (tests, reconfiguration)
  // must not strand its resident bytes in bionav_qcache_bytes.
  std::lock_guard<std::mutex> lock(stats_mu_);
  CacheBytes()->Add(-bytes_);
  CacheEntries()->Add(-entries_);
}

QueryArtifactCache::Shard& QueryArtifactCache::ShardOf(
    const std::string& key) const {
  return *shards_[std::hash<std::string>()(key) % shards_.size()];
}

int64_t QueryArtifactCache::NowMs() const { return options_.clock(); }

QueryArtifactCache::Lookup QueryArtifactCache::GetOrBuild(
    const std::string& key, const Builder& builder) {
  Shard& shard = ShardOf(key);
  std::optional<KeyedSingleflight<std::shared_ptr<const QueryArtifacts>>::Future>
      wait_on;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    int64_t now = NowMs();
    SweepExpiredLocked(shard, now);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      Entry& e = *it->second;
      e.last_used_ms = now;
      Lookup result{e.artifacts, /*hit=*/true, /*waited=*/false};
      int64_t build_us = e.build_us;
      // Response templates render and cut-memo entries accrue lazily
      // after insert and change the bundle's footprint; re-read it on
      // hits so the byte budget stays honest (and over-budget shards
      // evict — our own copy above keeps this bundle alive even if it is
      // the victim).
      size_t footprint = e.fixed_bytes + result.artifacts->GrowingBytes();
      if (footprint != e.bytes) {
        int64_t delta =
            static_cast<int64_t>(footprint) - static_cast<int64_t>(e.bytes);
        shard.resident_bytes = shard.resident_bytes - e.bytes + footprint;
        e.bytes = footprint;
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          bytes_ += delta;
        }
        CacheBytes()->Add(delta);
        EvictShardLocked(shard);
      }
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++counters_.hits;
        counters_.build_us_saved += build_us;
      }
      CacheHits()->Increment();
      CacheSavedHist()->Record(build_us);
      return result;
    }
    if (!builder) return {};
    wait_on = shard.building.Join(key);
  }

  if (wait_on.has_value()) {
    // Singleflight: one builder is already at work on this key; join its
    // result instead of duplicating the pipeline.
    Timer waited;
    std::shared_ptr<const QueryArtifacts> artifacts = wait_on->get();
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++counters_.hits;
      ++counters_.singleflight_waits;
      counters_.build_us_saved += artifacts->build_us;
    }
    CacheHits()->Increment();
    CacheWaits()->Increment();
    CacheWaitHist()->Record(waited.ElapsedMicros());
    CacheSavedHist()->Record(artifacts->build_us);
    return {std::move(artifacts), /*hit=*/true, /*waited=*/true};
  }

  // We own this key's build; run the pipeline outside every cache lock so
  // other keys keep flowing.
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++counters_.misses;
  }
  CacheMisses()->Increment();
  std::shared_ptr<const QueryArtifacts> artifacts = builder();
  BIONAV_CHECK(artifacts != nullptr) << "cache builder returned null";
  CacheBuildHist()->Record(artifacts->build_us);
  std::promise<std::shared_ptr<const QueryArtifacts>> landed;
  {
    // The entry and the end of the flight publish together, so a
    // newcomer finds one or the other.
    std::lock_guard<std::mutex> lock(shard.mu);
    int64_t now = NowMs();
    auto entry = std::make_shared<Entry>();
    entry->artifacts = artifacts;
    entry->fixed_bytes = artifacts->FixedBytes();
    entry->bytes = entry->fixed_bytes + artifacts->GrowingBytes();
    entry->build_us = artifacts->build_us;
    entry->inserted_ms = now;  // TTL counts from build completion.
    entry->last_used_ms = now;
    entry->sequence = shard.next_sequence++;
    shard.map[key] = entry;
    shard.resident_bytes += entry->bytes;
    landed = shard.building.Land(key);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      bytes_ += static_cast<int64_t>(entry->bytes);
      ++entries_;
    }
    CacheBytes()->Add(static_cast<int64_t>(entry->bytes));
    CacheEntries()->Add(1);
    EvictShardLocked(shard);
  }
  landed.set_value(artifacts);
  return {std::move(artifacts), /*hit=*/false, /*waited=*/false};
}

std::shared_ptr<const QueryArtifacts> QueryArtifactCache::Peek(
    const std::string& key) const {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  if (options_.ttl_ms > 0 &&
      NowMs() - it->second->inserted_ms > options_.ttl_ms) {
    return nullptr;
  }
  return it->second->artifacts;
}

bool QueryArtifactCache::Invalidate(const std::string& key) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  size_t bytes = it->second->bytes;
  shard.resident_bytes -= bytes;
  shard.map.erase(it);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    bytes_ -= static_cast<int64_t>(bytes);
    --entries_;
  }
  CacheBytes()->Add(-static_cast<int64_t>(bytes));
  CacheEntries()->Add(-1);
  return true;
}

QueryArtifactCacheStats QueryArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  QueryArtifactCacheStats out = counters_;
  out.bytes = bytes_;
  out.entries = entries_;
  return out;
}

void QueryArtifactCache::SweepExpiredLocked(Shard& shard, int64_t now_ms) {
  if (options_.ttl_ms <= 0) return;
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    Entry& e = *it->second;
    if (now_ms - e.inserted_ms > options_.ttl_ms) {
      shard.resident_bytes -= e.bytes;
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++counters_.expired_ttl;
        bytes_ -= static_cast<int64_t>(e.bytes);
        --entries_;
      }
      CacheExpirations()->Increment();
      CacheBytes()->Add(-static_cast<int64_t>(e.bytes));
      CacheEntries()->Add(-1);
      it = shard.map.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryArtifactCache::EvictShardLocked(Shard& shard) {
  // Linear LRU scan per eviction: a shard holds at most a few dozen
  // artifact bundles (each is a whole navigation tree), so O(n) beats
  // maintaining an intrusive list.
  while (shard.resident_bytes > shard_budget_) {
    // The most-recently-used ready entry is exempt: a just-inserted or
    // just-refreshed bundle (template renders grow footprints on hits)
    // must not self-evict, however oversized. Sequence breaks ties so a
    // same-tick insert still outranks the entry it displaced.
    auto mru = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      Entry& e = *it->second;
      if (mru == shard.map.end() ||
          e.last_used_ms > mru->second->last_used_ms ||
          (e.last_used_ms == mru->second->last_used_ms &&
           e.sequence > mru->second->sequence)) {
        mru = it;
      }
    }
    auto victim = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      Entry& e = *it->second;
      if (it == mru) continue;
      if (victim == shard.map.end() ||
          e.last_used_ms < victim->second->last_used_ms ||
          (e.last_used_ms == victim->second->last_used_ms &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim == shard.map.end()) break;  // Only the MRU bundle left.
    shard.resident_bytes -= victim->second->bytes;
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++counters_.evicted_lru;
      bytes_ -= static_cast<int64_t>(victim->second->bytes);
      --entries_;
    }
    CacheEvictions()->Increment();
    CacheBytes()->Add(-static_cast<int64_t>(victim->second->bytes));
    CacheEntries()->Add(-1);
    shard.map.erase(victim);
  }
}

}  // namespace bionav
