#include "server/session_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "persist/session_snapshot.h"
#include "util/timer.h"

namespace bionav {

namespace {

int64_t WallUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Global mirrors of the per-manager counters_ so STATS/METRICS see session
// churn without holding any manager's lock. All increments below happen
// under the owning manager's mu_, but the metrics themselves are shared by
// every manager in the process.
Counter* SessionsCreated() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_created_total", "Navigation sessions created");
  return c;
}
Counter* SessionsClosed() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_closed_total", "Sessions closed by the client");
  return c;
}
Counter* SessionsEvicted() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_evicted_total", "Sessions evicted by the LRU cap");
  return c;
}
Counter* SessionsExpired() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_expired_total", "Sessions expired by TTL");
  return c;
}
Gauge* SessionsLive() {
  static Gauge* g = GlobalMetrics().GetGauge("bionav_sessions_live",
                                             "Sessions currently resident");
  return g;
}
Counter* SessionsSpilled() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_spilled_total", "Session snapshots written to disk");
  return c;
}
Counter* SessionsRestored() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_restored_total",
      "Sessions resurrected from the spill tier");
  return c;
}
Counter* SessionsRestoreFailed() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_session_restore_failed_total",
      "Parked sessions dropped because their snapshot was unusable");
  return c;
}
Gauge* SessionsSpilledNow() {
  static Gauge* g = GlobalMetrics().GetGauge(
      "bionav_sessions_spilled", "Sessions currently parked on disk");
  return g;
}
Gauge* SessionHeapBytes() {
  static Gauge* g = GlobalMetrics().GetGauge(
      "bionav_session_heap_bytes",
      "Estimated heap bytes of resident session state");
  return g;
}
LatencyHistogram* RestoreLatency() {
  static LatencyHistogram* h = GlobalMetrics().GetHistogram(
      "bionav_session_restore_us",
      "Restore-on-touch: snapshot read, decode, artifact lookup and replay");
  return h;
}

/// Numeric suffix of a minted token ("shard0-s17" -> 17), or 0 if the
/// token does not look minted. Used to keep next_token_ ahead of whatever
/// is parked on disk after an unclean restart.
uint64_t TokenOrdinal(const std::string& token) {
  size_t s = token.rfind('s');
  if (s == std::string::npos || s + 1 >= token.size()) return 0;
  uint64_t value = 0;
  for (size_t i = s + 1; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return 0;
    value = value * 10 + static_cast<uint64_t>(token[i] - '0');
  }
  return value;
}

}  // namespace

SessionManager::SessionManager(const ConceptHierarchy* hierarchy,
                               const EUtilsClient* eutils,
                               StrategyFactory strategy_factory,
                               SessionManagerOptions options,
                               CostModelParams cost_params)
    : hierarchy_(hierarchy),
      eutils_(eutils),
      strategy_factory_(std::move(strategy_factory)),
      options_(std::move(options)),
      cost_params_(cost_params) {
  BIONAV_CHECK(hierarchy_ != nullptr);
  BIONAV_CHECK(eutils_ != nullptr);
  BIONAV_CHECK(strategy_factory_ != nullptr);
  if (options_.max_sessions == 0) options_.max_sessions = 1;
  if (!options_.clock) options_.clock = SteadyNowMs;
  if (options_.cache_enabled) {
    QueryArtifactCacheOptions cache_options;
    cache_options.max_bytes = options_.cache_max_bytes;
    cache_options.ttl_ms = options_.cache_ttl_ms;
    cache_options.shards = options_.cache_shards;
    cache_options.clock = options_.clock;
    cache_ = std::make_unique<QueryArtifactCache>(std::move(cache_options));
  }
  if (!options_.spill_dir.empty()) {
    spill_ = std::make_unique<SpillStore>(options_.spill_dir);
    spill_->Init().CheckOK();
    // Adopt whatever a predecessor left parked, and keep the token mint
    // ahead of it: after a warm restart (manifest) or a crash (scan), a
    // fresh "s17" must never alias a parked "s17".
    uint64_t max_seen = 0;
    for (std::string& token : spill_->ListTokens()) {
      max_seen = std::max(max_seen, TokenOrdinal(token));
      spilled_tokens_.insert(std::move(token));
    }
    next_token_ = max_seen + 1;
    Result<uint64_t> manifest = spill_->ReadManifest();
    if (manifest.ok()) {
      next_token_ = std::max(next_token_, manifest.ValueOrDie());
    }
    SessionsSpilledNow()->Add(static_cast<int64_t>(spilled_tokens_.size()));
  }
}

SessionManager::~SessionManager() {
  // Sessions dying with their manager leave the process-wide gauges;
  // without this, every short-lived manager (tests, restarts under one
  // process) would leak residue into bionav_sessions_live and friends.
  SessionsLive()->Add(-static_cast<int64_t>(sessions_.size()));
  SessionHeapBytes()->Add(-static_cast<int64_t>(resident_bytes_));
  SessionsSpilledNow()->Add(-static_cast<int64_t>(spilled_tokens_.size()));
}

int64_t SessionManager::NowMs() const { return options_.clock(); }

std::shared_ptr<const QueryArtifacts> SessionManager::ResolveArtifacts(
    const std::string& query, bool allow_peer) {
  if (allow_peer && options_.peer_fetcher) {
    std::shared_ptr<const QueryArtifacts> fetched =
        options_.peer_fetcher(NormalizeQueryKey(query));
    if (fetched != nullptr) {
      peer_fetch_hits_.fetch_add(1, std::memory_order_relaxed);
      return fetched;
    }
    peer_fetch_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  artifact_builds_.fetch_add(1, std::memory_order_relaxed);
  return BuildQueryArtifacts(*hierarchy_, *eutils_, query, cost_params_);
}

Result<std::string> SessionManager::Create(const std::string& query,
                                           size_t* result_size) {
  Result<CreateInfo> info = CreateSession(query);
  if (!info.ok()) return info.status();
  if (result_size != nullptr) *result_size = info.ValueOrDie().result_size;
  return info.TakeValue().token;
}

Result<SessionManager::CreateInfo> SessionManager::CreateSession(
    const std::string& query) {
  if (query.empty()) {
    return Status::InvalidArgument("empty query");
  }
  // Resolve the artifacts outside the session-map lock: navigation-tree
  // construction is the expensive part of QUERY and must not serialize
  // against other sessions. With the cache on, the build also singleflights
  // — concurrent QUERYs of one normalized key share a single build.
  CreateInfo info;
  std::shared_ptr<const QueryArtifacts> artifacts;
  if (cache_ != nullptr) {
    QueryArtifactCache::Lookup lookup =
        cache_->GetOrBuild(NormalizeQueryKey(query), [&] {
          return ResolveArtifacts(query, /*allow_peer=*/true);
        });
    artifacts = std::move(lookup.artifacts);
    info.cache_hit = lookup.hit;
  } else {
    artifacts = ResolveArtifacts(query, /*allow_peer=*/false);
  }
  info.artifacts = artifacts;
  auto entry = std::make_shared<Entry>();
  entry->session = std::make_unique<NavigationSession>(
      eutils_, std::move(artifacts), query, strategy_factory_);
  info.result_size = entry->session->result_size();
  entry->mem_bytes = entry->session->MemoryBytes();

  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowMs();
  SweepExpiredLocked(now);
  // Built in two steps: gcc 12's -Wrestrict misfires on the
  // `"s" + std::to_string(...)` rvalue-insert path at -O2.
  entry->token = std::to_string(next_token_++);
  entry->token.insert(0, 1, 's');
  entry->token.insert(0, options_.token_prefix);
  entry->last_used_ms = now;
  sessions_.emplace(entry->token, entry);
  resident_bytes_ += entry->mem_bytes;
  SessionHeapBytes()->Add(static_cast<int64_t>(entry->mem_bytes));
  ++counters_.created;
  SessionsCreated()->Increment();
  SessionsLive()->Add(1);
  EvictToCapacityLocked();
  info.token = entry->token;
  return info;
}

Status SessionManager::WithSession(
    std::string_view token,
    const std::function<Status(NavigationSession&)>& fn) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(token);
    if (it != sessions_.end()) {
      if (ExpiredLocked(*it->second, NowMs())) {
        ++counters_.expired_ttl;
        SessionsExpired()->Increment();
        EraseResidentLocked(it);
        return Status::NotFound("session '" + std::string(token) +
                                "' expired");
      }
      entry = it->second;
      PinLocked(*entry);
    }
  }
  if (entry == nullptr) {
    Status restore_status;
    entry = RestoreFromSpill(token, &restore_status);
    if (entry == nullptr) return restore_status;
  }
  Status result;
  size_t bytes = 0;
  {
    // Per-session serialization; the map lock is already released, so a
    // slow EXPAND on one session never stalls traffic to the others. The
    // byte count is taken here too: under mu_ alone it would race with a
    // concurrent op mutating this session's tree under op_mu.
    std::lock_guard<std::mutex> op_lock(entry->op_mu);
    result = fn(*entry->session);
    bytes = entry->session->MemoryBytes();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --entry->inflight;
    auto it = sessions_.find(entry->token);
    if (it != sessions_.end() && it->second == entry) {
      entry->last_used_ms = NowMs();
      int64_t delta = static_cast<int64_t>(bytes) -
                      static_cast<int64_t>(entry->mem_bytes);
      entry->mem_bytes = bytes;
      resident_bytes_ =
          static_cast<size_t>(static_cast<int64_t>(resident_bytes_) + delta);
      SessionHeapBytes()->Add(delta);
    }
  }
  return result;
}

void SessionManager::PinLocked(Entry& entry) {
  // Pin: spill and spill-backed eviction skip entries with an op in
  // flight, so the session about to be mutated cannot be snapshotted
  // (stale) or unlinked-to-disk underneath it.
  entry.last_used_ms = NowMs();
  ++entry.inflight;
  ++counters_.operations;
}

std::shared_ptr<SessionManager::Entry> SessionManager::RestoreFromSpill(
    std::string_view token, Status* status) {
  *status = Status::NotFound("unknown session '" + std::string(token) + "'");
  if (spill_ == nullptr) return nullptr;
  const std::string token_str(token);

  // Per-token singleflight: the first toucher of a parked token owns its
  // restore; concurrent touchers wait for it, then look again and take the
  // entry it inserted. Only the owner ever reads or deletes the record, so
  // a toucher can never find the file already consumed and mistake a live
  // session for a lost one.
  std::promise<void> done;
  while (true) {
    std::shared_future<void> in_flight;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(token);
      if (it != sessions_.end()) {
        PinLocked(*it->second);
        *status = Status::OK();
        return it->second;
      }
      auto pending = restoring_.find(token);
      if (pending == restoring_.end()) {
        if (spilled_tokens_.find(token) == spilled_tokens_.end()) {
          return nullptr;
        }
        restoring_.emplace(token_str, done.get_future().share());
        break;
      }
      in_flight = pending->second;
    }
    in_flight.wait();
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Read, decode, rebuild artifacts and replay — all outside mu_; a cold
  // restore costs a disk read plus (usually) an artifact-cache hit, and
  // must not stall traffic to resident sessions.
  Status fail;
  std::unique_ptr<NavigationSession> restored;
  Result<std::string> raw = spill_->Get(token_str);
  if (!raw.ok()) {
    fail = raw.status();
  } else {
    Result<SessionSnapshot> decoded = DecodeSnapshot(raw.ValueOrDie());
    if (!decoded.ok()) {
      fail = decoded.status();
    } else {
      const SessionSnapshot& snap = decoded.ValueOrDie();
      std::shared_ptr<const QueryArtifacts> artifacts;
      if (cache_ != nullptr) {
        artifacts = cache_
                        ->GetOrBuild(NormalizeQueryKey(snap.query),
                                     [&] {
                                       return ResolveArtifacts(
                                           snap.query, /*allow_peer=*/true);
                                     })
                        .artifacts;
      } else {
        artifacts = ResolveArtifacts(snap.query, /*allow_peer=*/false);
      }
      Result<std::unique_ptr<NavigationSession>> session = RestoreSession(
          snap, eutils_, std::move(artifacts), strategy_factory_);
      if (!session.ok()) {
        fail = session.status();
      } else {
        restored = session.TakeValue();
      }
    }
  }
  // The record is consumed either way: restored into the heap, or unusable
  // (corrupt, or the world changed under it) and dropped so the failure is
  // not sticky. While this restore is in flight the token is neither
  // resident nor re-parkable, so no newer record can be lost here.
  spill_->Delete(token_str);

  const int64_t restore_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::shared_ptr<Entry> entry;
  bool lost = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    restoring_.erase(token_str);
    // A CLOSE that raced the restore already unparked the token (and
    // counted the close); the session stays closed.
    auto parked = spilled_tokens_.find(token);
    if (parked != spilled_tokens_.end()) {
      spilled_tokens_.erase(parked);
      SessionsSpilledNow()->Add(-1);
      if (restored == nullptr) {
        ++counters_.restore_failed;
        lost = true;
      } else {
        entry = std::make_shared<Entry>();
        entry->token = token_str;
        entry->session = std::move(restored);
        entry->mem_bytes = entry->session->MemoryBytes();
        sessions_.emplace(entry->token, entry);
        resident_bytes_ += entry->mem_bytes;
        SessionHeapBytes()->Add(static_cast<int64_t>(entry->mem_bytes));
        SessionsLive()->Add(1);
        ++counters_.restored;
        SessionsRestored()->Increment();
        RestoreLatency()->Record(restore_us);
        PinLocked(*entry);
        EvictToCapacityLocked();
      }
    }
  }
  done.set_value();
  if (lost) {
    // Surfaces as NotFound — the wire maps it to UNKNOWN_SESSION like any
    // dead token.
    SessionsRestoreFailed()->Increment();
    *status = Status::NotFound("session '" + token_str +
                               "' unrecoverable: " + fail.ToString());
  }
  if (entry != nullptr) *status = Status::OK();
  return entry;
}

Result<std::shared_ptr<const QueryArtifacts>> SessionManager::ArtifactsForKey(
    const std::string& key) {
  if (cache_ == nullptr) {
    return Status::FailedPrecondition(
        "artifact cache disabled; no shared bundle to export");
  }
  QueryArtifactCache::Lookup lookup =
      cache_->GetOrBuild(NormalizeQueryKey(key), [&] {
        return ResolveArtifacts(key, /*allow_peer=*/false);
      });
  return lookup.artifacts;
}

bool SessionManager::Close(std::string_view token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(token);
  if (it != sessions_.end()) {
    EraseResidentLocked(it);
    ++counters_.closed;
    SessionsClosed()->Increment();
    return true;
  }
  auto parked = spilled_tokens_.find(token);
  if (parked != spilled_tokens_.end()) {
    spill_->Delete(*parked);
    spilled_tokens_.erase(parked);
    SessionsSpilledNow()->Add(-1);
    ++counters_.closed;
    SessionsClosed()->Increment();
    return true;
  }
  return false;
}

size_t SessionManager::SpillIdle() {
  if (spill_ == nullptr || options_.spill_after_ms <= 0) return 0;
  // Candidates are collected first, then spilled one map-lock hold each:
  // a 10k-session idle sweep is a burst of small writes, and the map must
  // stay responsive to live traffic between them.
  std::vector<std::string> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t now = NowMs();
    for (const auto& [token, entry] : sessions_) {
      if (entry->inflight == 0 &&
          now - entry->last_used_ms >= options_.spill_after_ms) {
        candidates.push_back(token);
      }
    }
  }
  size_t spilled = 0;
  for (const std::string& token : candidates) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(token);
    if (it == sessions_.end()) continue;
    const std::shared_ptr<Entry>& entry = it->second;
    // Re-check under the lock: the session may have been touched (or an op
    // may be in flight) since the candidate scan.
    if (entry->inflight != 0) continue;
    if (NowMs() - entry->last_used_ms < options_.spill_after_ms) continue;
    if (SpillEntryLocked(entry)) {
      EraseResidentLocked(it);
      ++spilled;
    }
  }
  return spilled;
}

size_t SessionManager::SpillAll() {
  if (spill_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t spilled = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->inflight == 0 && SpillEntryLocked(it->second)) {
      it = EraseResidentLocked(it);
      ++spilled;
    } else {
      ++it;
    }
  }
  // The manifest marks a clean spill and carries the token mint; if the
  // write fails the successor falls back to scanning parked tokens.
  (void)spill_->WriteManifest(next_token_);
  return spilled;
}

bool SessionManager::SpillEntryLocked(const std::shared_ptr<Entry>& entry) {
  BIONAV_CHECK_EQ(entry->inflight, 0);
  SessionSnapshot snap =
      SnapshotSession(*entry->session, entry->token, WallUnixMs());
  Status written = spill_->Put(entry->token, EncodeSnapshot(snap));
  if (!written.ok()) {
    BIONAV_LOG(Error) << "spill of '" << entry->token
                      << "' failed: " << written.ToString();
    return false;
  }
  if (spilled_tokens_.insert(entry->token).second) {
    SessionsSpilledNow()->Add(1);
  }
  ++counters_.spilled;
  SessionsSpilled()->Increment();
  return true;
}

SessionManager::SessionMap::iterator SessionManager::EraseResidentLocked(
    SessionMap::iterator it) {
  resident_bytes_ -= it->second->mem_bytes;
  SessionHeapBytes()->Add(-static_cast<int64_t>(it->second->mem_bytes));
  SessionsLive()->Add(-1);
  return sessions_.erase(it);
}

size_t SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerStats out = counters_;
  out.active = sessions_.size();
  out.spilled_now = spilled_tokens_.size();
  out.resident_bytes = resident_bytes_;
  out.artifact_builds = artifact_builds_.load(std::memory_order_relaxed);
  out.peer_fetch_hits = peer_fetch_hits_.load(std::memory_order_relaxed);
  out.peer_fetch_misses = peer_fetch_misses_.load(std::memory_order_relaxed);
  return out;
}

bool SessionManager::ExpiredLocked(const Entry& entry, int64_t now_ms) const {
  return options_.ttl_ms > 0 && entry.inflight == 0 &&
         now_ms - entry.last_used_ms > options_.ttl_ms;
}

void SessionManager::SweepExpiredLocked(int64_t now_ms) {
  if (options_.ttl_ms <= 0) return;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (ExpiredLocked(*it->second, now_ms)) {
      ++counters_.expired_ttl;
      SessionsExpired()->Increment();
      it = EraseResidentLocked(it);
    } else {
      ++it;
    }
  }
}

void SessionManager::EvictToCapacityLocked() {
  // Linear LRU scan: capacity is a few hundred sessions, and eviction only
  // runs on Create/restore, so O(n) beats maintaining an intrusive list.
  // With the spill tier on, eviction parks the victim on disk instead of
  // destroying it. In-flight entries are never victims: a mid-op snapshot
  // would persist a stale tree.
  while (sessions_.size() > options_.max_sessions) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second->inflight != 0) continue;
      if (victim == sessions_.end() ||
          it->second->last_used_ms < victim->second->last_used_ms ||
          (it->second->last_used_ms == victim->second->last_used_ms &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    // Everything is pinned by an in-flight op: stay over capacity for a
    // moment rather than lose or corrupt a session.
    if (victim == sessions_.end()) break;
    if (spill_ == nullptr || !SpillEntryLocked(victim->second)) {
      ++counters_.evicted_lru;
      SessionsEvicted()->Increment();
    }
    EraseResidentLocked(victim);
  }
}

}  // namespace bionav
