#ifndef BIONAV_SERVER_SESSION_MANAGER_H_
#define BIONAV_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/query_artifact_cache.h"
#include "persist/spill_store.h"
#include "sim/session.h"
#include "util/keyed_singleflight.h"

namespace bionav {

/// Tuning knobs of the session store. The defaults suit an interactive
/// deployment: a navigation dialogue that pauses for ten minutes has been
/// abandoned, and a few hundred live trees bound the server's memory.
struct SessionManagerOptions {
  /// Live-session capacity; creating one past it evicts the least recently
  /// used session. Clamped to >= 1.
  size_t max_sessions = 256;
  /// Idle time after which a session expires; 0 disables TTL expiry.
  int64_t ttl_ms = 10 * 60 * 1000;
  /// Prepended to every minted session token ("shard0-s17"). Tokens are
  /// opaque to clients but must be unique across a whole serving tier:
  /// bionav_route pins sessions to shards by token, so two backends
  /// minting the same "s1" would alias in the router's pin map. Empty
  /// (the default) for single-process deployments.
  std::string token_prefix;
  /// Millisecond clock used for TTL/LRU accounting. Defaults to
  /// std::chrono::steady_clock; tests inject a fake to step time manually.
  /// Also handed to the query-artifact cache, so session TTL and artifact
  /// TTL tick on the same (possibly fake) clock.
  std::function<int64_t()> clock;
  /// Share query artifacts (result set, navigation tree, cost
  /// model) across sessions of the same normalized query. When false,
  /// every QUERY rebuilds privately (the pre-cache behavior).
  bool cache_enabled = true;
  /// Byte budget / TTL / shard count of the artifact cache; see
  /// QueryArtifactCacheOptions. The cache's clock is always inherited from
  /// `clock` above.
  size_t cache_max_bytes = QueryArtifactCacheOptions().max_bytes;
  int64_t cache_ttl_ms = 0;
  size_t cache_shards = 8;
  /// Directory for the spill tier; empty disables spilling. With spill on,
  /// idle and capacity-evicted sessions are snapshotted to disk instead of
  /// destroyed, and the next touch of their token restores them
  /// transparently — millions of parked dialogues fit a small heap.
  std::string spill_dir;
  /// Idle time after which SpillIdle writes a session out. 0 means "only
  /// spill on capacity eviction or SpillAll". Should be well below ttl_ms:
  /// TTL still destroys *resident* sessions, while parked snapshots live
  /// until CLOSE or restore (steady clocks do not survive a restart, so
  /// on-disk records carry no trustworthy idle age).
  int64_t spill_after_ms = 0;
  /// Cross-shard artifact sharing: tried (with the normalized query key)
  /// inside the cache's singleflight builder before a local build. Return
  /// the ring-owner's bundle, or nullptr to fall back to building locally
  /// (key self-owned, fleet unconfigured, peer down, record corrupt). The
  /// hook runs outside every SessionManager lock but inside the cache's
  /// per-key singleflight, so a shard issues at most one fetch per key no
  /// matter how many sessions pile up.
  /// Only consulted when cache_enabled is true — without the cache there
  /// is no singleflight to gate the fetch.
  std::function<std::shared_ptr<const QueryArtifacts>(const std::string&)>
      peer_fetcher;
};

/// Lifetime counters. `active` is the instantaneous live-session count;
/// the rest are monotone since construction.
struct SessionManagerStats {
  size_t active = 0;
  int64_t created = 0;
  int64_t evicted_lru = 0;
  int64_t expired_ttl = 0;
  int64_t closed = 0;
  /// Operations dispatched through WithSession (EXPAND, SHOWRESULTS, ...).
  int64_t operations = 0;
  /// Spill-tier traffic (all zero when spill_dir is empty). `restored`
  /// counts every restore; `restored_inline` the subset that ran on a
  /// reactor thread (TryWithSession), the rest ran on the pool.
  int64_t spilled = 0;
  int64_t restored = 0;
  int64_t restored_inline = 0;
  int64_t restore_failed = 0;
  /// Sessions currently parked on disk.
  size_t spilled_now = 0;
  /// Bytes of the parked sessions' snapshot records kept in memory.
  size_t parked_record_bytes = 0;
  /// Estimated heap bytes of the resident sessions (the spill tier's
  /// memory-bounding claim is judged against this gauge).
  size_t resident_bytes = 0;
  /// Artifact provenance. `artifact_builds` counts bundles this manager
  /// built from scratch; peer_fetch_hits bundles obtained from the ring
  /// owner; peer_fetch_misses peer attempts that fell back to a local
  /// build. Per-manager (unlike bionav_artifact_builds_total, which is
  /// process-wide), so a test hosting several in-process shards can
  /// attribute builds to the shard that ran them.
  int64_t artifact_builds = 0;
  int64_t peer_fetch_hits = 0;
  int64_t peer_fetch_misses = 0;
};

/// Owns the live NavigationSessions of a serving process, keyed by opaque
/// token. Thread-safe: the token map is guarded by one mutex, and every
/// session carries its own operation mutex — two EXPANDs on one session
/// serialize (an ActiveTree is stateful), while operations on distinct
/// sessions proceed concurrently on the server's thread pool.
///
/// The map mutex is never held across disk I/O: spills encode under it and
/// write outside it, and a parked token's file is unlinked outside it, so
/// a reactor thread may take it (TryWithSession, an inline CreateSession
/// or Close).
/// The reactor's calls do no disk I/O at all: they hand what they would
/// write or unlink back as DiskWork, for the caller to run off the
/// reactor with FinishDiskWork.
///
/// Eviction never blocks on a session being operated on: entries are
/// shared_ptr-owned, so an LRU/TTL eviction or CLOSE unlinks the entry from
/// the map and the in-flight operation finishes on the (now unlisted)
/// session before it is destroyed.
class SessionManager {
 public:
  /// The largest navigation tree TryWithSession restores: building the
  /// ActiveTree and replaying the log grow with the tree, so a larger
  /// tree's restore is left to the pool.
  static constexpr size_t kInlineRestoreMaxNodes = 2048;

  SessionManager(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
                 StrategyFactory strategy_factory,
                 SessionManagerOptions options = SessionManagerOptions(),
                 CostModelParams cost_params = CostModelParams());
  /// As above, with the spill tier served by `spill` (null: no spill tier)
  /// instead of a SpillStore on options.spill_dir — the seam tests use to
  /// slow down or fail the tier's writes.
  SessionManager(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
                 StrategyFactory strategy_factory,
                 SessionManagerOptions options, CostModelParams cost_params,
                 std::unique_ptr<SpillStore> spill);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Spill-tier disk work a reactor-side call left undone: snapshots of
  /// evicted sessions to write, and the files of restored or closed tokens
  /// to unlink. Run it on a pool thread with FinishDiskWork.
  class DiskWork;

  /// What CreateSession produced: the registered session's token, the
  /// query's result size, and whether the artifacts came from the shared
  /// cache (false on a cold build or when the cache is disabled).
  struct CreateInfo {
    std::string token;
    size_t result_size = 0;
    bool cache_hit = false;
    /// The session's (possibly shared) artifacts — the server serves
    /// pre-rendered response templates straight off the bundle on hits.
    std::shared_ptr<const QueryArtifacts> artifacts;
  };

  /// Runs the online pipeline for `query` (ESearch -> navigation tree ->
  /// active tree) — or, on a cache hit, reuses the shared immutable artifacts
  /// of an earlier session with the same normalized query — and registers
  /// the session. Expensive on a miss (tree construction), so the build
  /// runs outside every lock; concurrent creates of *distinct* queries
  /// overlap, while concurrent creates of the *same* query singleflight on
  /// one build. When the new session pushes the table past capacity with
  /// the spill tier on, the victim's snapshot is written by this call,
  /// after the map lock is released. With `deferred` (the reactor's call)
  /// nothing is built or waited for — a query whose artifacts are not
  /// resident gets FailedPrecondition — and the victim's snapshot is left
  /// there for the caller.
  Result<CreateInfo> CreateSession(const std::string& query,
                                   DiskWork* deferred = nullptr);

  /// Back-compat wrapper over CreateSession: returns the token; the result
  /// size is reported through `*result_size` when non-null.
  Result<std::string> Create(const std::string& query,
                             size_t* result_size = nullptr);

  /// Looks up `token`, refreshes its TTL/LRU stamp, and runs `fn` on the
  /// session under its per-session mutex. A token parked in the spill tier
  /// is restored first (artifact rebuild + replay), transparently to the
  /// caller, and the restore's disk work is done before this returns.
  /// Returns NotFound if the token is not live (never created,
  /// closed, evicted, expired, or its snapshot is unreadable) — the only
  /// NotFound this method itself produces; any other status comes from
  /// `fn`. Takes a view so arena-backed binary request tokens flow through
  /// without materializing a std::string.
  Status WithSession(std::string_view token,
                     const std::function<Status(NavigationSession&)>& fn);

  /// The non-blocking WithSession the reactor uses. Runs `fn` only when
  /// `token` is resident, unexpired, not being spilled, pinned by no other
  /// operation, and its op mutex is free — or when it is parked with its
  /// record in memory, no other caller is restoring it, and its query's
  /// artifacts are resident in the cache with at most
  /// kInlineRestoreMaxNodes tree nodes: then it is restored here, from
  /// memory, first. `fn` returns true when it served the operation.
  /// Returns false when any of that fails or `fn` declines, in which case
  /// `fn` must have left the session as it found it; the caller then takes
  /// the blocking path. A declined call changes no LRU stamp or op
  /// counter, but a restore it ran stays done. Disk work (the restored
  /// session's stale record, evictions) goes to `deferred`.
  bool TryWithSession(std::string_view token,
                      const std::function<bool(NavigationSession&)>& fn,
                      DiskWork* deferred);

  /// Runs the disk work a reactor-side call deferred: writes its eviction
  /// spills (re-running capacity eviction as FinishSpills does) and
  /// unlinks the files it names. Call it off the reactor.
  void FinishDiskWork(DiskWork work);

  /// Closes (unregisters) a session, resident or parked, without waiting
  /// on anything. False if the token was not live. A parked token's file
  /// is unlinked by this call — or, with `deferred`, left there for the
  /// caller.
  bool Close(std::string_view token, DiskWork* deferred = nullptr);

  /// Spills every resident session idle for spill_after_ms (skipping any
  /// with an operation in flight) to disk and drops it from the heap.
  /// Returns the number written. No-op unless spill is configured.
  size_t SpillIdle();

  /// Spills every resident session regardless of idleness and persists the
  /// token counter in the spill manifest — the warm-restart path (call
  /// after the server drained, so nothing is in flight). A session whose
  /// stale record is still to be unlinked is spilled over it. Returns the
  /// number written.
  size_t SpillAll();

  /// Owner-side half of FETCH_ARTIFACT: the (already normalized) key's
  /// bundle from the shared cache, building locally on a miss — inside the
  /// same singleflight QUERYs use, so a fetch and a concurrent QUERY of
  /// one key share a single build. Never consults peer_fetcher: the ring
  /// owner is the end of the chain (a fetch loop between two shards that
  /// disagree about ownership must terminate in a local build).
  /// FailedPrecondition when caching is disabled — there is no shared
  /// bundle to export.
  Result<std::shared_ptr<const QueryArtifacts>> ArtifactsForKey(
      const std::string& key);

  bool spill_enabled() const { return spill_ != nullptr; }

  size_t active() const;
  SessionManagerStats stats() const;

  /// The shared artifact cache, or nullptr when cache_enabled is false.
  QueryArtifactCache* cache() const { return cache_.get(); }

 private:
  /// Transparent hashing so string_view tokens (viewing a binary request
  /// frame) probe the maps without an allocating conversion.
  struct TokenHash {
    using is_transparent = void;
    size_t operator()(std::string_view token) const {
      return std::hash<std::string_view>()(token);
    }
  };

  /// Where an entry stands with the spill tier. Guarded by mu_.
  enum class SpillState : uint8_t {
    kNone,
    /// Its snapshot is being written outside the lock; the writer owns the
    /// token's file until it parks the session or deletes what it wrote.
    kWriting,
    /// As kWriting, but a touch or CLOSE came meanwhile and wins: the
    /// writer deletes its file and the session stays as it is.
    kCancelled,
    /// Restored with its record still on disk: a DiskWork unlink owns
    /// that file. A spill may begin and take the file over (its write
    /// replaces the record); the unlink then leaves it alone.
    kStaleFile,
    /// The stale file is being unlinked outside the lock; no spill may
    /// begin until that is done.
    kUnlinking,
  };
  /// A snapshot write is in flight (kWriting or kCancelled): the entry is
  /// on its way out, so capacity does not count it.
  static bool Writing(SpillState state) {
    return state == SpillState::kWriting || state == SpillState::kCancelled;
  }

  struct Entry {
    std::string token;
    std::unique_ptr<NavigationSession> session;
    /// Serializes operations on this session.
    std::mutex op_mu;
    /// Guarded by SessionManager::mu_.
    int64_t last_used_ms = 0;
    /// Operations between lookup and release (guarded by mu_). Spill and
    /// spill-backed eviction skip pinned entries: snapshotting a session
    /// mid-mutation would persist a stale tree and lose the op — the
    /// touch-during-spill race the regression tests pin down.
    int inflight = 0;
    /// Last MemoryBytes() estimate, for the resident-heap gauge (mu_).
    size_t mem_bytes = 0;
    SpillState spill = SpillState::kNone;
    /// Intrusive LRU links (mu_): every resident entry is on the list,
    /// most recently used at the head, so the tail is ordered by
    /// last_used_ms and eviction, TTL and idle-spill walks start there.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  /// A snapshot encoded under mu_, to be written outside it.
  struct PendingSpill {
    std::shared_ptr<Entry> entry;
    std::shared_ptr<const std::string> record;
    /// Capacity eviction: a failed write still drops the session.
    bool evicting = false;
  };

  /// A parked token. Its sealed record is kept in memory as written, for
  /// at most max_sessions tokens (the oldest fall back to disk only), so a
  /// restore reads the file only for those and for tokens adopted from a
  /// predecessor.
  struct Parked {
    std::shared_ptr<const std::string> record;
    /// Its place in records_by_age_, while `record` is set.
    std::list<std::string>::iterator age;
  };
  using ParkedMap =
      std::unordered_map<std::string, Parked, TokenHash, std::equal_to<>>;

 public:
  class DiskWork {
   public:
    bool empty() const {
      return spills_.empty() && unlinks_.empty() && deletes_.empty();
    }

   private:
    friend class SessionManager;
    std::vector<PendingSpill> spills_;
    /// Entries restored as kStaleFile, whose token's file is to go.
    std::vector<std::shared_ptr<Entry>> unlinks_;
    /// Files no entry owns: of tokens closed while parked, or unrestorable.
    std::vector<std::string> deletes_;
  };

 private:
  int64_t NowMs() const;
  /// Initializes the spill store and adopts what a predecessor parked in
  /// it, keeping the token mint ahead of the parked tokens.
  void AdoptParked();
  /// Resolves artifacts for `query`: peer fetch first (when configured and
  /// `allow_peer`), local build otherwise. Runs outside every lock — it is
  /// the cache's singleflight builder on the cached path.
  std::shared_ptr<const QueryArtifacts> ResolveArtifacts(
      const std::string& query, bool allow_peer);
  /// The artifacts of `query`: through the cache (its singleflight, then
  /// a peer fetch or local build) when it is on, else built privately.
  /// Without `may_build`, only a bundle the cache holds ready (null
  /// otherwise). `*cache_hit` (optional) reports a cache hit.
  std::shared_ptr<const QueryArtifacts> ArtifactsFor(const std::string& query,
                                                     bool may_build,
                                                     bool* cache_hit);
  /// The one TTL-expiry predicate: idle past the TTL and not pinned by an
  /// op in flight. Requires mu_ held.
  bool ExpiredLocked(const Entry& entry, int64_t now_ms) const;
  /// Drops TTL-expired entries, walking the LRU from its tail. Requires mu_.
  void SweepExpiredLocked(int64_t now_ms);
  /// Evicts least-recently-used entries until below capacity. With the
  /// spill tier on, victims are encoded into `pending` for the caller to
  /// write once mu_ is released (FinishSpills); otherwise they are dropped.
  /// Requires mu_ held.
  void EvictToCapacityLocked(std::vector<PendingSpill>* pending);
  /// Encodes `entry`'s snapshot and marks it kWriting. Requires mu_ held,
  /// entry->inflight == 0 and entry->spill == kNone (the lock plus the zero
  /// pin count guarantee no thread is touching the session).
  PendingSpill BeginSpillLocked(const std::shared_ptr<Entry>& entry,
                                bool evicting);
  /// Writes begun spills (mu_ not held) with FinishSpill, including the
  /// evictions they re-run, so the table is back within capacity when it
  /// returns. Returns the number of sessions parked. With `deferred`, the
  /// spills are left there instead and nothing is written.
  size_t FinishSpills(std::vector<PendingSpill> spills,
                      DiskWork* deferred = nullptr);
  /// Writes a begun spill (mu_ not held), then parks the session if nobody
  /// touched or closed it meanwhile, or deletes the written file if
  /// somebody did. A session that stays resident counts against capacity
  /// again, so the eviction is re-run and its victims appended to
  /// `evicted`. True when the session was parked.
  bool FinishSpill(PendingSpill& spill, std::vector<PendingSpill>* evicted);
  /// Spills each of `candidates` that is still resident, idle by
  /// `min_idle_ms` (< 0: any — and then a candidate whose stale file is
  /// being unlinked is waited for) and neither pinned nor being spilled.
  size_t SpillCandidates(const std::vector<std::shared_ptr<Entry>>& candidates,
                         int64_t min_idle_ms);
  /// Ends a begun spill that did not park its session. Requires mu_.
  void EndSpillLocked(const std::shared_ptr<Entry>& entry);
  /// True when a spill of `entry` may begin: no op pins it, and no spill
  /// write or unlink of its file is in flight. Requires mu_.
  static bool SpillableLocked(const Entry& entry) {
    return entry.inflight == 0 && (entry.spill == SpillState::kNone ||
                                   entry.spill == SpillState::kStaleFile);
  }
  /// Marks `entry` used and in flight (one more operation). Requires mu_.
  void PinLocked(Entry& entry);
  /// After an operation on `entry` (mu_ held, pin already dropped): stamps
  /// it used and settles the heap gauge with its new `bytes`, unless it
  /// left the map meanwhile.
  void SettleLocked(const std::shared_ptr<Entry>& entry, size_t bytes);
  /// Restores parked `token`: decodes its record, replays it over its
  /// query's artifacts and registers the session in kStaleFile, leaving
  /// the file's unlink and any eviction in `work`; a restore itself never
  /// touches the file. Concurrent callers for one token share a single
  /// restore. With `may_wait` (the pool), it waits on another caller's
  /// restore, reads a record that is only on disk and builds artifacts;
  /// the entry comes back pinned as by WithSession, and an unusable
  /// record unparks the token and queues its file's unlink. Without it
  /// (the reactor), any of that declines, leaving the token parked;
  /// restores run only for trees of at most kInlineRestoreMaxNodes nodes,
  /// and the entry comes back pinned with its op_mu held. NotFound for a
  /// token that is not parked.
  Result<std::shared_ptr<Entry>> Restore(std::string_view token,
                                         bool may_wait, DiskWork* work);
  /// Parks `token` with its just-written `record` in memory, dropping the
  /// oldest in-memory records past max_sessions. Requires mu_.
  void ParkLocked(const std::string& token,
                  std::shared_ptr<const std::string> record);
  /// Unparks a token (restored or closed). Requires mu_.
  void UnparkLocked(ParkedMap::iterator parked);
  /// Drops a parked token's in-memory record (it stays parked on disk).
  /// Requires mu_.
  void DropRecordLocked(Parked& parked);

  /// LRU list maintenance (mu_ held): link at the head, move to the head,
  /// unlink.
  void LruPushFrontLocked(Entry& entry);
  void LruTouchLocked(Entry& entry);
  void LruUnlinkLocked(Entry& entry);

  const ConceptHierarchy* hierarchy_;
  const EUtilsClient* eutils_;
  StrategyFactory strategy_factory_;
  SessionManagerOptions options_;
  CostModelParams cost_params_;
  /// Shared per-query artifacts; null when caching is disabled.
  std::unique_ptr<QueryArtifactCache> cache_;

  using SessionMap = std::unordered_map<std::string, std::shared_ptr<Entry>,
                                        TokenHash, std::equal_to<>>;

  /// Unlinks a resident entry and settles the live/heap gauges. Requires
  /// mu_ held.
  void EraseResidentLocked(SessionMap::iterator it);
  /// The map slot of `entry` if it is still the resident entry of its
  /// token, else end(). Requires mu_ held.
  SessionMap::iterator FindListedLocked(const std::shared_ptr<Entry>& entry);

  /// The spill store, or null when the spill tier is off.
  std::unique_ptr<SpillStore> spill_;

  mutable std::mutex mu_;
  SessionMap sessions_;
  /// LRU sentinel: lru_.lru_next is the most recently used entry,
  /// lru_.lru_prev the least. Guarded by mu_.
  Entry lru_;
  /// Resident entries with a spill write in flight (spill != kNone); they
  /// are on their way out, so capacity does not count them. Guarded by mu_.
  size_t spilling_ = 0;
  /// Tokens currently parked on disk (mirrors the spill directory, so a
  /// WithSession miss never pays a disk probe for a genuinely unknown
  /// token), with their in-memory records. Guarded by mu_.
  ParkedMap parked_;
  /// Tokens of parked_ whose record is in memory, oldest first. Guarded by
  /// mu_.
  std::list<std::string> records_by_age_;
  /// Bytes of the in-memory records. Guarded by mu_.
  size_t record_bytes_ = 0;
  /// Parked tokens whose restore is in flight; the future becomes ready
  /// when the owning toucher has inserted the session or given up on it.
  /// Guarded by mu_.
  KeyedSingleflight<void> restoring_;
  /// Signalled (under mu_) when an unlink of a stale file finishes.
  std::condition_variable unlinked_;
  /// Running MemoryBytes() total of resident sessions. Guarded by mu_.
  size_t resident_bytes_ = 0;
  uint64_t next_token_ = 1;
  SessionManagerStats counters_;  // `active` field unused; derived from map.
  /// Artifact provenance; atomics because they tick inside the cache's
  /// builder, which runs outside mu_.
  std::atomic<int64_t> artifact_builds_{0};
  std::atomic<int64_t> peer_fetch_hits_{0};
  std::atomic<int64_t> peer_fetch_misses_{0};
};

}  // namespace bionav

#endif  // BIONAV_SERVER_SESSION_MANAGER_H_
