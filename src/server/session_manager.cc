#include "server/session_manager.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
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
Counter* SessionsRestoredInline() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_sessions_restored_inline_total",
      "Parked sessions restored on a reactor thread, from their in-memory "
      "record");
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
Gauge* ParkedRecordBytes() {
  static Gauge* g = GlobalMetrics().GetGauge(
      "bionav_session_parked_record_bytes",
      "Bytes of parked sessions' snapshot records kept in memory");
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
    : SessionManager(hierarchy, eutils, std::move(strategy_factory),
                     std::move(options), cost_params, nullptr) {
  if (!options_.spill_dir.empty()) {
    spill_ = std::make_unique<SpillStore>(options_.spill_dir);
    AdoptParked();
  }
}

SessionManager::SessionManager(const ConceptHierarchy* hierarchy,
                               const EUtilsClient* eutils,
                               StrategyFactory strategy_factory,
                               SessionManagerOptions options,
                               CostModelParams cost_params,
                               std::unique_ptr<SpillStore> spill)
    : hierarchy_(hierarchy),
      eutils_(eutils),
      strategy_factory_(std::move(strategy_factory)),
      options_(std::move(options)),
      cost_params_(cost_params),
      spill_(std::move(spill)) {
  BIONAV_CHECK(hierarchy_ != nullptr);
  BIONAV_CHECK(eutils_ != nullptr);
  BIONAV_CHECK(strategy_factory_ != nullptr);
  lru_.lru_prev = lru_.lru_next = &lru_;
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
  if (spill_ != nullptr) AdoptParked();
}

void SessionManager::AdoptParked() {
  spill_->Init().CheckOK();
  // Adopt whatever a predecessor left parked, and keep the token mint
  // ahead of it: after a warm restart (manifest) or a crash (scan), a
  // fresh "s17" must never alias a parked "s17".
  uint64_t max_seen = 0;
  for (std::string& token : spill_->ListTokens()) {
    max_seen = std::max(max_seen, TokenOrdinal(token));
    parked_.emplace(std::move(token), Parked());
  }
  next_token_ = max_seen + 1;
  Result<uint64_t> manifest = spill_->ReadManifest();
  if (manifest.ok()) {
    next_token_ = std::max(next_token_, manifest.ValueOrDie());
  }
  SessionsSpilledNow()->Add(static_cast<int64_t>(parked_.size()));
}

SessionManager::~SessionManager() {
  // Sessions dying with their manager leave the process-wide gauges;
  // without this, every short-lived manager (tests, restarts under one
  // process) would leak residue into bionav_sessions_live and friends.
  SessionsLive()->Add(-static_cast<int64_t>(sessions_.size()));
  SessionHeapBytes()->Add(-static_cast<int64_t>(resident_bytes_));
  SessionsSpilledNow()->Add(-static_cast<int64_t>(parked_.size()));
  ParkedRecordBytes()->Add(-static_cast<int64_t>(record_bytes_));
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

std::shared_ptr<const QueryArtifacts> SessionManager::ArtifactsFor(
    const std::string& query, bool may_build, bool* cache_hit) {
  if (cache_ == nullptr) {
    return may_build ? ResolveArtifacts(query, /*allow_peer=*/false) : nullptr;
  }
  QueryArtifactCache::Builder builder;  // Empty: a resident-only lookup.
  if (may_build) {
    builder = [&] { return ResolveArtifacts(query, /*allow_peer=*/true); };
  }
  QueryArtifactCache::Lookup lookup =
      cache_->GetOrBuild(NormalizeQueryKey(query), builder);
  if (cache_hit != nullptr) *cache_hit = lookup.hit;
  return std::move(lookup.artifacts);
}

Result<std::string> SessionManager::Create(const std::string& query,
                                           size_t* result_size) {
  Result<CreateInfo> info = CreateSession(query);
  if (!info.ok()) return info.status();
  if (result_size != nullptr) *result_size = info.ValueOrDie().result_size;
  return info.TakeValue().token;
}

Result<SessionManager::CreateInfo> SessionManager::CreateSession(
    const std::string& query, DiskWork* deferred) {
  if (query.empty()) {
    return Status::InvalidArgument("empty query");
  }
  // Resolve the artifacts outside the session-map lock: navigation-tree
  // construction is the expensive part of QUERY and must not serialize
  // against other sessions. With the cache on, the build also singleflights
  // — concurrent QUERYs of one normalized key share a single build.
  CreateInfo info;
  info.artifacts =
      ArtifactsFor(query, /*may_build=*/deferred == nullptr, &info.cache_hit);
  if (info.artifacts == nullptr) {
    return Status::FailedPrecondition("artifacts not resident");
  }
  auto entry = std::make_shared<Entry>();
  entry->session = std::make_unique<NavigationSession>(
      eutils_, info.artifacts, query, strategy_factory_);
  info.result_size = entry->session->result_size();
  entry->mem_bytes = entry->session->MemoryBytes();

  std::vector<PendingSpill> evicted;
  {
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
    LruPushFrontLocked(*entry);
    resident_bytes_ += entry->mem_bytes;
    SessionHeapBytes()->Add(static_cast<int64_t>(entry->mem_bytes));
    ++counters_.created;
    SessionsCreated()->Increment();
    SessionsLive()->Add(1);
    EvictToCapacityLocked(&evicted);
    info.token = entry->token;
  }
  FinishSpills(std::move(evicted), deferred);
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
    DiskWork work;
    Result<std::shared_ptr<Entry>> restored =
        Restore(token, /*may_wait=*/true, &work);
    // The stale record's unlink and the evictions, on this (pool) thread.
    FinishDiskWork(std::move(work));
    if (!restored.ok()) return restored.status();
    entry = restored.TakeValue();
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
  std::lock_guard<std::mutex> lock(mu_);
  --entry->inflight;
  SettleLocked(entry, bytes);
  return result;
}

bool SessionManager::TryWithSession(
    std::string_view token, const std::function<bool(NavigationSession&)>& fn,
    DiskWork* deferred) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(token);
    if (it != sessions_.end()) {
      Entry& found = *it->second;
      if (found.inflight != 0 || Writing(found.spill) ||
          ExpiredLocked(found, NowMs()) || !found.op_mu.try_lock()) {
        return false;
      }
      // Pinned against spill and expiry, but not touched: a declined try
      // must leave the LRU order and the counters as they were.
      ++found.inflight;
      entry = it->second;
    }
  }
  if (entry == nullptr) {
    Result<std::shared_ptr<Entry>> restored =
        Restore(token, /*may_wait=*/false, deferred);
    if (!restored.ok()) return false;
    entry = restored.TakeValue();
  }
  std::unique_lock<std::mutex> op_lock(entry->op_mu, std::adopt_lock);
  const bool served = fn(*entry->session);
  const size_t bytes = served ? entry->session->MemoryBytes() : 0;
  op_lock.unlock();
  std::lock_guard<std::mutex> lock(mu_);
  --entry->inflight;
  if (served) {
    ++counters_.operations;
    SettleLocked(entry, bytes);
  }
  return served;
}

void SessionManager::FinishDiskWork(DiskWork work) {
  FinishSpills(std::move(work.spills_));
  for (const std::shared_ptr<Entry>& entry : work.unlinks_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A spill that began meanwhile took the file over.
      if (entry->spill != SpillState::kStaleFile) continue;
      entry->spill = SpillState::kUnlinking;
    }
    spill_->Delete(entry->token);
    std::lock_guard<std::mutex> lock(mu_);
    entry->spill = SpillState::kNone;
    unlinked_.notify_all();
  }
  for (const std::string& token : work.deletes_) spill_->Delete(token);
}

void SessionManager::ParkLocked(const std::string& token,
                                std::shared_ptr<const std::string> record) {
  auto [it, fresh] = parked_.try_emplace(token);
  if (fresh) SessionsSpilledNow()->Add(1);
  DropRecordLocked(it->second);
  record_bytes_ += record->size();
  ParkedRecordBytes()->Add(static_cast<int64_t>(record->size()));
  it->second.record = std::move(record);
  it->second.age = records_by_age_.insert(records_by_age_.end(), token);
  if (records_by_age_.size() > options_.max_sessions) {
    DropRecordLocked(parked_.find(records_by_age_.front())->second);
  }
}

void SessionManager::UnparkLocked(ParkedMap::iterator parked) {
  DropRecordLocked(parked->second);
  parked_.erase(parked);
  SessionsSpilledNow()->Add(-1);
}

void SessionManager::DropRecordLocked(Parked& parked) {
  if (parked.record == nullptr) return;
  record_bytes_ -= parked.record->size();
  ParkedRecordBytes()->Add(-static_cast<int64_t>(parked.record->size()));
  records_by_age_.erase(parked.age);
  parked.record.reset();
}

void SessionManager::SettleLocked(const std::shared_ptr<Entry>& entry,
                                  size_t bytes) {
  if (FindListedLocked(entry) == sessions_.end()) return;
  entry->last_used_ms = NowMs();
  LruTouchLocked(*entry);
  int64_t delta =
      static_cast<int64_t>(bytes) - static_cast<int64_t>(entry->mem_bytes);
  entry->mem_bytes = bytes;
  resident_bytes_ =
      static_cast<size_t>(static_cast<int64_t>(resident_bytes_) + delta);
  SessionHeapBytes()->Add(delta);
}

void SessionManager::PinLocked(Entry& entry) {
  // Pin: spill and spill-backed eviction skip entries with an op in
  // flight, so the session about to be mutated cannot be snapshotted
  // (stale) or unlinked-to-disk underneath it. A touch during a spill
  // write wins: the writer deletes its file and the session stays.
  entry.last_used_ms = NowMs();
  LruTouchLocked(entry);
  ++entry.inflight;
  ++counters_.operations;
  if (entry.spill == SpillState::kWriting) entry.spill = SpillState::kCancelled;
}

Result<std::shared_ptr<SessionManager::Entry>> SessionManager::Restore(
    std::string_view token, bool may_wait, DiskWork* work) {
  // Per-token singleflight: the first toucher of a parked token owns its
  // restore; on the pool, concurrent touchers wait for it, then look again
  // and take the entry it inserted. Only the owner reads the record, so a
  // toucher can never find it consumed and mistake a live session for a
  // lost one.
  std::shared_ptr<const std::string> record;
  while (true) {
    std::optional<KeyedSingleflight<void>::Future> in_flight;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = may_wait ? sessions_.find(token) : sessions_.end();
      if (it != sessions_.end()) {
        PinLocked(*it->second);
        return it->second;
      }
      auto parked = parked_.find(token);
      if (parked == parked_.end()) {
        return Status::NotFound("unknown session '" + std::string(token) +
                                "'");
      }
      record = parked->second.record;
      if (!may_wait && (record == nullptr || restoring_.InFlight(token))) {
        return Status::FailedPrecondition("restore would wait or read disk");
      }
      in_flight = restoring_.Join(token);
    }
    if (!in_flight.has_value()) break;
    in_flight->wait();
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Read (a token adopted from a predecessor is the only kind whose record
  // is not in memory), decode, look up artifacts and replay — all outside
  // mu_. The usual restore is an artifact-cache hit and must not stall
  // traffic to resident sessions.
  auto rebuild = [&]() -> Result<std::unique_ptr<NavigationSession>> {
    std::string read;
    if (record == nullptr) {
      Result<std::string> raw = spill_->Get(std::string(token));
      if (!raw.ok()) return raw.status();
      read = raw.TakeValue();
    }
    Result<SessionSnapshot> snap =
        DecodeSnapshot(record != nullptr ? *record : read);
    if (!snap.ok()) return snap.status();
    std::shared_ptr<const QueryArtifacts> artifacts =
        ArtifactsFor(snap.ValueOrDie().query, may_wait, nullptr);
    if (artifacts == nullptr) {
      return Status::FailedPrecondition("artifacts not resident");
    }
    if (!may_wait && artifacts->nav->size() > kInlineRestoreMaxNodes) {
      return Status::FailedPrecondition("tree too large to restore inline");
    }
    return RestoreSession(snap.ValueOrDie(), eutils_, std::move(artifacts),
                          strategy_factory_);
  };
  Result<std::unique_ptr<NavigationSession>> restored = rebuild();
  const int64_t restore_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();

  std::shared_ptr<Entry> entry;
  std::promise<void> landed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    landed = restoring_.Land(token);
    // A CLOSE that raced the restore already unparked the token (and
    // counted the close); the session stays closed.
    auto parked = parked_.find(token);
    if (parked != parked_.end() && restored.ok()) {
      entry = std::make_shared<Entry>();
      entry->token = parked->first;
      UnparkLocked(parked);
      entry->session = restored.TakeValue();
      entry->mem_bytes = entry->session->MemoryBytes();
      entry->last_used_ms = NowMs();
      // The record's file is still on disk; `work` unlinks it.
      entry->spill = SpillState::kStaleFile;
      work->unlinks_.push_back(entry);
      sessions_.emplace(entry->token, entry);
      LruPushFrontLocked(*entry);
      resident_bytes_ += entry->mem_bytes;
      SessionHeapBytes()->Add(static_cast<int64_t>(entry->mem_bytes));
      SessionsLive()->Add(1);
      ++counters_.restored;
      SessionsRestored()->Increment();
      RestoreLatency()->Record(restore_us);
      if (may_wait) {
        PinLocked(*entry);
      } else {
        ++entry->inflight;  // Pinned; the op is counted once it is served.
        ++counters_.restored_inline;
        SessionsRestoredInline()->Increment();
        entry->op_mu.lock();  // Fresh, so uncontended.
      }
      EvictToCapacityLocked(&work->spills_);
    } else if (parked != parked_.end() && may_wait) {
      // Unusable (corrupt, or the world changed under it): the record is
      // dropped so the failure is not sticky. Surfaces as NotFound — the
      // wire maps it to UNKNOWN_SESSION like any dead token.
      UnparkLocked(parked);
      ++counters_.restore_failed;
      SessionsRestoreFailed()->Increment();
      work->deletes_.emplace_back(token);
    }
  }
  landed.set_value();
  if (entry != nullptr) return entry;
  if (restored.ok()) {
    return Status::NotFound("unknown session '" + std::string(token) + "'");
  }
  return Status::NotFound("session '" + std::string(token) +
                          "' unrecoverable: " + restored.status().ToString());
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

bool SessionManager::Close(std::string_view token, DiskWork* deferred) {
  DiskWork work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(token);
    if (it != sessions_.end()) {
      EraseResidentLocked(it);
    } else {
      auto parked = parked_.find(token);
      if (parked == parked_.end()) return false;
      UnparkLocked(parked);
      // The token can never be parked or resident again, so this unlink
      // is the last word on its file.
      (deferred != nullptr ? deferred : &work)->deletes_.emplace_back(token);
    }
    ++counters_.closed;
    SessionsClosed()->Increment();
  }
  FinishDiskWork(std::move(work));
  return true;
}

size_t SessionManager::SpillIdle() {
  if (spill_ == nullptr || options_.spill_after_ms <= 0) return 0;
  // Candidates come off the LRU tail, idlest first; the first session used
  // too recently ends the walk, since every later one is newer. Each is
  // then encoded under the lock and written outside it, so a 10k-session
  // sweep is a burst of small writes that never holds up live traffic.
  std::vector<std::shared_ptr<Entry>> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = NowMs();
    for (Entry* e = lru_.lru_prev; e != &lru_; e = e->lru_prev) {
      if (now - e->last_used_ms < options_.spill_after_ms) break;
      if (SpillableLocked(*e)) {
        candidates.push_back(sessions_.find(e->token)->second);
      }
    }
  }
  return SpillCandidates(candidates, options_.spill_after_ms);
}

size_t SessionManager::SpillAll() {
  if (spill_ == nullptr) return 0;
  std::vector<std::shared_ptr<Entry>> candidates;
  uint64_t next_token = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [token, entry] : sessions_) candidates.push_back(entry);
    next_token = next_token_;
  }
  size_t spilled = SpillCandidates(candidates, /*min_idle_ms=*/-1);
  // The manifest marks a clean spill and carries the token mint; if the
  // write fails the successor falls back to scanning parked tokens.
  (void)spill_->WriteManifest(next_token);
  return spilled;
}

size_t SessionManager::SpillCandidates(
    const std::vector<std::shared_ptr<Entry>>& candidates,
    int64_t min_idle_ms) {
  size_t spilled = 0;
  for (const std::shared_ptr<Entry>& entry : candidates) {
    std::vector<PendingSpill> begun;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (min_idle_ms < 0) {
        unlinked_.wait(lock,
                       [&] { return entry->spill != SpillState::kUnlinking; });
      }
      // Re-check under the lock: the session may have been touched,
      // closed or pinned since the candidate scan.
      if (FindListedLocked(entry) == sessions_.end() ||
          !SpillableLocked(*entry)) {
        continue;
      }
      if (min_idle_ms >= 0 && NowMs() - entry->last_used_ms < min_idle_ms) {
        continue;
      }
      begun.push_back(BeginSpillLocked(entry, /*evicting=*/false));
    }
    spilled += FinishSpills(std::move(begun));
  }
  return spilled;
}

SessionManager::PendingSpill SessionManager::BeginSpillLocked(
    const std::shared_ptr<Entry>& entry, bool evicting) {
  BIONAV_CHECK(SpillableLocked(*entry));
  PendingSpill spill;
  spill.entry = entry;
  spill.record = std::make_shared<const std::string>(EncodeSnapshot(
      SnapshotSession(*entry->session, entry->token, WallUnixMs())));
  spill.evicting = evicting;
  entry->spill = SpillState::kWriting;
  ++spilling_;
  return spill;
}

size_t SessionManager::FinishSpills(std::vector<PendingSpill> spills,
                                    DiskWork* deferred) {
  if (deferred != nullptr) {
    for (PendingSpill& spill : spills) {
      deferred->spills_.push_back(std::move(spill));
    }
    return 0;
  }
  size_t parked = 0;
  // FinishSpill may append the spills of a re-run eviction.
  for (size_t i = 0; i < spills.size(); ++i) {
    PendingSpill spill = std::move(spills[i]);
    if (FinishSpill(spill, &spills)) ++parked;
  }
  return parked;
}

bool SessionManager::FinishSpill(PendingSpill& spill,
                                 std::vector<PendingSpill>* evicted) {
  Entry& entry = *spill.entry;
  Status written = spill_->Put(entry.token, *spill.record);
  if (!written.ok()) {
    BIONAV_LOG(Error) << "spill of '" << entry.token
                      << "' failed: " << written.ToString();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = FindListedLocked(spill.entry);
    if (it != sessions_.end() && entry.spill == SpillState::kWriting) {
      ParkLocked(entry.token, std::move(spill.record));
      ++counters_.spilled;
      SessionsSpilled()->Increment();
      EraseResidentLocked(it);
      entry.spill = SpillState::kNone;
      return true;
    }
  }
  // Not parked: a touch or CLOSE won the race, or the write failed. The
  // session stays resident (or closed), and what is at the token's path —
  // the record just written, or a stale one this spill took over — must
  // go. The entry still owns its token's file until then, so no other
  // spill of it can begin meanwhile.
  spill_->Delete(entry.token);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindListedLocked(spill.entry);
  if (!written.ok() && spill.evicting && it != sessions_.end() &&
      entry.spill == SpillState::kWriting) {
    // A capacity victim that cannot be parked is dropped, as it would be
    // without the spill tier.
    ++counters_.evicted_lru;
    SessionsEvicted()->Increment();
    EraseResidentLocked(it);
  }
  EndSpillLocked(spill.entry);
  // Capacity did not count the entry while it was being spilled; if it
  // stays, the table may be over its cap, and the eviction that brings it
  // back is written by this same call.
  EvictToCapacityLocked(evicted);
  return false;
}

void SessionManager::EndSpillLocked(const std::shared_ptr<Entry>& entry) {
  if (Writing(entry->spill) && FindListedLocked(entry) != sessions_.end()) {
    --spilling_;
  }
  entry->spill = SpillState::kNone;
}

SessionManager::SessionMap::iterator SessionManager::FindListedLocked(
    const std::shared_ptr<Entry>& entry) {
  auto it = sessions_.find(entry->token);
  return it != sessions_.end() && it->second == entry ? it : sessions_.end();
}

void SessionManager::EraseResidentLocked(SessionMap::iterator it) {
  Entry& entry = *it->second;
  resident_bytes_ -= entry.mem_bytes;
  SessionHeapBytes()->Add(-static_cast<int64_t>(entry.mem_bytes));
  SessionsLive()->Add(-1);
  if (Writing(entry.spill)) --spilling_;
  LruUnlinkLocked(entry);
  sessions_.erase(it);
}

void SessionManager::LruPushFrontLocked(Entry& entry) {
  entry.lru_prev = &lru_;
  entry.lru_next = lru_.lru_next;
  lru_.lru_next->lru_prev = &entry;
  lru_.lru_next = &entry;
}

void SessionManager::LruUnlinkLocked(Entry& entry) {
  entry.lru_prev->lru_next = entry.lru_next;
  entry.lru_next->lru_prev = entry.lru_prev;
  entry.lru_prev = entry.lru_next = nullptr;
}

void SessionManager::LruTouchLocked(Entry& entry) {
  LruUnlinkLocked(entry);
  LruPushFrontLocked(entry);
}

size_t SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerStats out = counters_;
  out.active = sessions_.size();
  out.spilled_now = parked_.size();
  out.parked_record_bytes = record_bytes_;
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
  // Oldest first: the first session used within the TTL ends the walk.
  // Pinned sessions are skipped, and so are those being spilled — their
  // writer parks them.
  for (Entry* e = lru_.lru_prev; e != &lru_;) {
    if (now_ms - e->last_used_ms <= options_.ttl_ms) break;
    Entry* older = e->lru_prev;
    if (ExpiredLocked(*e, now_ms) && !Writing(e->spill)) {
      ++counters_.expired_ttl;
      SessionsExpired()->Increment();
      EraseResidentLocked(sessions_.find(e->token));
    }
    e = older;
  }
}

void SessionManager::EvictToCapacityLocked(std::vector<PendingSpill>* pending) {
  // The victim is the LRU tail. Pinned entries are skipped — a mid-op
  // snapshot would persist a stale tree — and so are those already being
  // spilled, which capacity no longer counts; there are at most a few of
  // either, one per worker. With the spill tier on, the victim is parked
  // on disk instead of destroyed, its write left to the caller.
  Entry* e = lru_.lru_prev;
  while (sessions_.size() - spilling_ > options_.max_sessions) {
    while (e != &lru_ && !SpillableLocked(*e)) {
      e = e->lru_prev;
    }
    // Everything is pinned: stay over capacity for a moment rather than
    // lose or corrupt a session.
    if (e == &lru_) break;
    auto victim = sessions_.find(e->token);
    e = e->lru_prev;
    if (spill_ != nullptr) {
      pending->push_back(BeginSpillLocked(victim->second, /*evicting=*/true));
    } else {
      ++counters_.evicted_lru;
      SessionsEvicted()->Increment();
      EraseResidentLocked(victim);
    }
  }
}

}  // namespace bionav
