// Spill-tier tests of the SessionManager: idle sessions park on disk and
// resurrect transparently on their next touch, capacity eviction spills
// instead of destroying, in-flight operations pin their session against
// the sweep (the touch-during-spill race), corrupt snapshots surface as
// NotFound, a SpillAll/adopt pair hands live dialogues across manager
// generations (the warm-restart path), a reactor-side restore replays the
// in-memory record and leaves its stale file to a deferred unlink that a
// CLOSE, a re-spill or a SpillAll may race, the resident-heap gauge collapses
// when idle sessions leave the heap, and a loopback NavServer restores a
// parked wire session byte-identically.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"
#include "persist/session_snapshot.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;

/// Fresh, empty scratch directory under the gtest temp root.
std::string MakeSpillDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "bionav_spill_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t CountSnapshotFiles(const std::string& dir) {
  size_t count = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") ++count;
  }
  return count;
}

/// A SpillStore whose writes (or, with HoldDeletes, unlinks) can be held
/// at a gate: while held, each such call waits (before touching the disk)
/// until the test opens the gate.
class GatedSpillStore : public SpillStore {
 public:
  using SpillStore::SpillStore;

  Status Put(const std::string& token, std::string_view record) override {
    Pass(/*is_delete=*/false);
    return SpillStore::Put(token, record);
  }
  bool Delete(const std::string& token) override {
    Pass(/*is_delete=*/true);
    return SpillStore::Delete(token);
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
    holds_deletes_ = false;
  }
  void HoldDeletes() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
    holds_deletes_ = true;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  /// Waits until a held call has reached the gate.
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrivals_ > 0; });
  }

 private:
  void Pass(bool is_delete) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!held_ || is_delete != holds_deletes_) return;
    ++arrivals_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !held_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool holds_deletes_ = false;
  int arrivals_ = 0;
};

/// Runs `ops` on a thread while a spill write is held, then opens the
/// gate. True when `ops` finished with the write still held — that is,
/// without waiting on anything the write holds.
bool FinishesWhileWriteIsHeld(GatedSpillStore* store,
                              const std::function<void()>& ops) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    ops();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  bool in_time;
  {
    std::unique_lock<std::mutex> lock(mu);
    in_time = cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
  }
  store->Open();
  worker.join();
  return in_time;
}

class ServerSpillTest : public ::testing::Test {
 protected:
  SessionManager MakeManager(SessionManagerOptions options) {
    options.clock = [this] { return now_ms_.load(); };
    return SessionManager(&fixture_.mesh, fixture_.eutils.get(),
                          MakeBioNavStrategyFactory(), options);
  }

  SessionManagerOptions SpillOptions(const std::string& dir,
                                     int64_t spill_after_ms = 100) {
    SessionManagerOptions options;
    options.spill_dir = dir;
    options.spill_after_ms = spill_after_ms;
    return options;
  }

  /// EXPANDs the session root through the manager (gives the session some
  /// durable state to round-trip).
  void ExpandRoot(SessionManager& manager, const std::string& token) {
    Status s = manager.WithSession(token, [](NavigationSession& session) {
      return session.Expand(NavigationTree::kRoot).status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// A manager whose spill writes go through a GatedSpillStore on `dir`.
  std::unique_ptr<SessionManager> MakeGatedManager(
      SessionManagerOptions options, const std::string& dir,
      GatedSpillStore** store) {
    auto gated = std::make_unique<GatedSpillStore>(dir);
    *store = gated.get();
    options.clock = [this] { return now_ms_.load(); };
    return std::make_unique<SessionManager>(
        &fixture_.mesh, fixture_.eutils.get(), MakeBioNavStrategyFactory(),
        options, CostModelParams(), std::move(gated));
  }

  MiniFixture fixture_;
  std::atomic<int64_t> now_ms_{0};
};

TEST_F(ServerSpillTest, SpillIdleParksAndTouchRestoresTransparently) {
  std::string dir = MakeSpillDir("idle");
  SessionManager manager = MakeManager(SpillOptions(dir, 100));
  ASSERT_TRUE(manager.spill_enabled());

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  ExpandRoot(manager, token.ValueOrDie());
  size_t log_size = 0;
  ASSERT_TRUE(manager
                  .WithSession(token.ValueOrDie(),
                               [&](NavigationSession& session) {
                                 log_size = session.expand_log().size();
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(log_size, 1u);

  // Too fresh: nothing to spill yet.
  now_ms_ += 50;
  EXPECT_EQ(manager.SpillIdle(), 0u);
  EXPECT_EQ(manager.active(), 1u);

  now_ms_ += 100;
  EXPECT_EQ(manager.SpillIdle(), 1u);
  EXPECT_EQ(manager.active(), 0u);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);
  SessionManagerStats parked = manager.stats();
  EXPECT_EQ(parked.spilled, 1);
  EXPECT_EQ(parked.spilled_now, 1u);
  EXPECT_EQ(parked.resident_bytes, 0u);

  // The next touch restores — state intact, never NotFound.
  size_t restored_log = 0;
  Status s = manager.WithSession(token.ValueOrDie(),
                                 [&](NavigationSession& session) {
                                   restored_log = session.expand_log().size();
                                   return Status::OK();
                                 });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored_log, 1u);
  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.restored, 1);
  EXPECT_EQ(stats.spilled_now, 0u);
  EXPECT_EQ(manager.active(), 1u);
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST_F(ServerSpillTest, ConcurrentTouchesOfParkedTokenNeverSeeNotFound) {
  // The regression the issue pins: a token mid-restore (or mid-spill) must
  // look live to every concurrent toucher — one thread restores, the rest
  // adopt the restored entry; UNKNOWN_SESSION would wedge real clients.
  std::string dir = MakeSpillDir("race");
  SessionManager manager = MakeManager(SpillOptions(dir, 50));

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  ExpandRoot(manager, token.ValueOrDie());
  now_ms_ += 100;
  ASSERT_EQ(manager.SpillIdle(), 1u);

  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> not_found{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        Status s = manager.WithSession(
            token.ValueOrDie(), [](NavigationSession& session) {
              return session.expand_log().size() == 1
                         ? Status::OK()
                         : Status::Internal("restored state lost");
            });
        if (s.ok()) {
          ++ok_count;
        } else if (s.code() == StatusCode::kNotFound) {
          ++not_found;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(not_found.load(), 0);
  // Exactly one thread paid the restore; the snapshot was consumed once.
  EXPECT_EQ(manager.stats().restored, 1);
}

TEST_F(ServerSpillTest, TouchesRacingAParkLoopNeverFail) {
  // Touches race a park loop: the sweep keeps parking the session while
  // several threads keep touching it, so a touch can find it parked,
  // mid-restore by another toucher, or just restored. A live session must
  // never answer NotFound, and no restore may be counted failed.
  std::string dir = MakeSpillDir("race_loop");
  // The clock steps while touchers read it, so it is atomic here. It runs
  // far ahead of real time, so TTL expiry is off: a toucher descheduled
  // mid-op must not see its session expire under it.
  std::atomic<int64_t> clock_ms{0};
  SessionManagerOptions options = SpillOptions(dir, 50);
  options.clock = [&clock_ms] { return clock_ms.load(); };
  options.ttl_ms = 0;
  SessionManager manager(&fixture_.mesh, fixture_.eutils.get(),
                         MakeBioNavStrategyFactory(), options);
  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  ExpandRoot(manager, token.ValueOrDie());

  constexpr int kThreads = 4;
  constexpr int64_t kRestores = 100;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        Status s = manager.WithSession(
            token.ValueOrDie(),
            [](NavigationSession&) { return Status::OK(); });
        if (!s.ok()) ++failures;
        // Leave the map lock free for the sweep between touches.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (manager.stats().restored < kRestores &&
         std::chrono::steady_clock::now() < deadline) {
    clock_ms += 100;  // Every resident touch is now past spill_after_ms.
    manager.SpillIdle();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  SessionManagerStats stats = manager.stats();
  EXPECT_GE(stats.restored, kRestores);
  EXPECT_EQ(stats.restore_failed, 0);
}

TEST_F(ServerSpillTest, InFlightOperationPinsSessionAgainstSpill) {
  std::string dir = MakeSpillDir("pin");
  SessionManager manager = MakeManager(SpillOptions(dir, 50));

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());

  std::mutex mu;
  std::condition_variable cv;
  bool op_entered = false;
  bool release_op = false;

  std::thread op([&] {
    Status s =
        manager.WithSession(token.ValueOrDie(), [&](NavigationSession&) {
          {
            std::unique_lock<std::mutex> lock(mu);
            op_entered = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release_op; });
          }
          return Status::OK();
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return op_entered; });
  }
  // The session is pinned by the in-flight op: even though it now looks
  // idle by the clock, the sweep must skip it — snapshotting a session
  // mid-mutation would persist a stale tree and lose the operation.
  now_ms_ += 1000;
  EXPECT_EQ(manager.SpillIdle(), 0u);
  EXPECT_EQ(manager.active(), 1u);
  EXPECT_EQ(manager.stats().spilled, 0);

  {
    std::unique_lock<std::mutex> lock(mu);
    release_op = true;
    cv.notify_all();
  }
  op.join();

  // Unpinned (and the op refreshed the idle stamp): advancing the clock
  // past the threshold spills it now.
  now_ms_ += 1000;
  EXPECT_EQ(manager.SpillIdle(), 1u);
  EXPECT_EQ(manager.active(), 0u);
}

TEST_F(ServerSpillTest, CapacityEvictionSpillsTheVictim) {
  std::string dir = MakeSpillDir("evict");
  SessionManagerOptions options = SpillOptions(dir, 0);
  options.max_sessions = 2;
  options.cache_enabled = false;  // Distinct queries -> distinct artifacts.
  SessionManager manager = MakeManager(options);

  auto first = manager.Create("prothymosin");
  ASSERT_TRUE(first.ok());
  ExpandRoot(manager, first.ValueOrDie());
  now_ms_ += 10;
  auto second = manager.Create("apoptosis");
  ASSERT_TRUE(second.ok());
  now_ms_ += 10;
  auto third = manager.Create("necrosis");
  ASSERT_TRUE(third.ok());

  EXPECT_EQ(manager.active(), 2u);
  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.spilled, 1);
  EXPECT_EQ(stats.evicted_lru, 0);
  EXPECT_EQ(stats.spilled_now, 1u);

  // The LRU victim (the first session) is parked, not gone.
  size_t log_size = 0;
  Status s = manager.WithSession(first.ValueOrDie(),
                                 [&](NavigationSession& session) {
                                   log_size = session.expand_log().size();
                                   return Status::OK();
                                 });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 1u);
  EXPECT_EQ(manager.stats().restored, 1);
}

TEST_F(ServerSpillTest, OtherTokensAreServedWhileASpillWriteIsHeld) {
  // The map lock is not held across a spill's disk write: ops, creates,
  // closes and stats on other tokens finish while the write waits.
  std::string dir = MakeSpillDir("held_write");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string idle = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 100;
  std::string busy = manager->Create("prothymosin").ValueOrDie();

  store->Hold();
  size_t spilled = 0;
  std::thread sweeper([&] { spilled = manager->SpillIdle(); });
  store->AwaitHeld();
  EXPECT_TRUE(FinishesWhileWriteIsHeld(store, [&] {
    ExpandRoot(*manager, busy);
    auto created = manager->CreateSession("apoptosis");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    EXPECT_TRUE(manager->Close(created.ValueOrDie().token));
    SessionManagerStats stats = manager->stats();
    EXPECT_EQ(stats.spilled, 0);
    EXPECT_EQ(stats.active, 2u);  // `idle` stays resident until parked.
  }));
  sweeper.join();
  EXPECT_EQ(spilled, 1u);
  EXPECT_EQ(manager->stats().spilled_now, 1u);
  EXPECT_EQ(manager->active(), 1u);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);
  // The parked session restores as ever.
  Status s = manager->WithSession(idle, [](NavigationSession&) {
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(ServerSpillTest, TouchDuringASpillWriteWinsAndKeepsItsState) {
  std::string dir = MakeSpillDir("touch_write");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string token = manager->Create("prothymosin").ValueOrDie();
  ExpandRoot(*manager, token);
  now_ms_ += 100;

  store->Hold();
  size_t spilled = 0;
  std::thread sweeper([&] { spilled = manager->SpillIdle(); });
  store->AwaitHeld();
  // The token being spilled is still live: the touch finds it resident
  // (never NotFound) and its BACKTRACK wins over the snapshot in flight.
  EXPECT_TRUE(FinishesWhileWriteIsHeld(store, [&] {
    Status s = manager->WithSession(token, [](NavigationSession& session) {
      return session.Backtrack() ? Status::OK()
                                 : Status::Internal("nothing to undo");
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }));
  sweeper.join();
  EXPECT_EQ(spilled, 0u);
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.spilled, 0);
  EXPECT_EQ(stats.spilled_now, 0u);
  EXPECT_EQ(stats.restored, 0);
  EXPECT_EQ(CountSnapshotFiles(dir), 0u) << "the cancelled spill's file";
  size_t log_size = 99;
  Status s = manager->WithSession(token, [&](NavigationSession& session) {
    log_size = session.expand_log().size();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 0u);
  // Idle again, it spills normally.
  now_ms_ += 100;
  store->Open();
  EXPECT_EQ(manager->SpillIdle(), 1u);
}

TEST_F(ServerSpillTest, CloseDuringASpillWriteLeavesNoFile) {
  std::string dir = MakeSpillDir("close_write");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string token = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 100;

  store->Hold();
  size_t spilled = 0;
  std::thread sweeper([&] { spilled = manager->SpillIdle(); });
  store->AwaitHeld();
  EXPECT_TRUE(FinishesWhileWriteIsHeld(
      store, [&] { EXPECT_TRUE(manager->Close(token)); }));
  sweeper.join();
  EXPECT_EQ(spilled, 0u);
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.closed, 1);
  EXPECT_EQ(stats.spilled_now, 0u);
  EXPECT_EQ(stats.active, 0u);
  Status s = manager->WithSession(
      token, [](NavigationSession&) { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(ServerSpillTest, CapacityEvictionWritesOutsideTheLock) {
  std::string dir = MakeSpillDir("evict_write");
  SessionManagerOptions options = SpillOptions(dir, 0);
  options.max_sessions = 2;
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(options, dir, &store);
  std::string victim = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 10;
  std::string other = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 10;

  store->Hold();
  std::thread creator([&] {
    EXPECT_TRUE(manager->Create("prothymosin").ok());
  });
  store->AwaitHeld();
  EXPECT_TRUE(FinishesWhileWriteIsHeld(store, [&] {
    ExpandRoot(*manager, other);
    EXPECT_EQ(manager->stats().spilled, 0);
  }));
  creator.join();
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.spilled, 1);
  EXPECT_EQ(stats.active, 2u);
  EXPECT_EQ(stats.evicted_lru, 0);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);
  Status s = manager->WithSession(
      victim, [](NavigationSession&) { return Status::OK(); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(manager->stats().restored, 1);
}

TEST_F(ServerSpillTest, TouchOfAnEvictionVictimEvictsTheNextSession) {
  // A touch during the victim's write wins and the victim stays resident;
  // the create that evicted it still returns with the table within
  // capacity, having parked the next least recently used session instead.
  std::string dir = MakeSpillDir("evict_touch");
  SessionManagerOptions options = SpillOptions(dir, 0);
  options.max_sessions = 2;
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(options, dir, &store);
  std::string victim = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 10;
  std::string next = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 10;

  store->Hold();
  std::thread creator([&] {
    EXPECT_TRUE(manager->Create("prothymosin").ok());
  });
  store->AwaitHeld();
  EXPECT_TRUE(
      FinishesWhileWriteIsHeld(store, [&] { ExpandRoot(*manager, victim); }));
  creator.join();
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.active, 2u);
  EXPECT_EQ(stats.spilled, 1);
  EXPECT_EQ(stats.spilled_now, 1u);
  EXPECT_EQ(stats.evicted_lru, 0);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);

  // The victim kept its EXPAND in the heap; `next` is the one parked.
  size_t log_size = 0;
  Status s = manager->WithSession(victim, [&](NavigationSession& session) {
    log_size = session.expand_log().size();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 1u);
  EXPECT_EQ(manager->stats().restored, 0);
  s = manager->WithSession(next,
                           [](NavigationSession&) { return Status::OK(); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(manager->stats().restored, 1);
}

TEST_F(ServerSpillTest, InlineRestoreRunsFromMemoryAndDefersItsUnlink) {
  // The reactor's restore reads no file and unlinks none: it replays the
  // record kept in memory and leaves the stale file to its DiskWork.
  std::string dir = MakeSpillDir("inline_restore");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string token = manager->Create("prothymosin").ValueOrDie();
  ExpandRoot(*manager, token);
  now_ms_ += 100;
  ASSERT_EQ(manager->SpillIdle(), 1u);
  EXPECT_GT(manager->stats().parked_record_bytes, 0u);

  SessionManager::DiskWork work;
  size_t log_size = 0;
  EXPECT_TRUE(manager->TryWithSession(
      token,
      [&](NavigationSession& session) {
        log_size = session.expand_log().size();
        return true;
      },
      &work));
  EXPECT_EQ(log_size, 1u);
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.restored, 1);
  EXPECT_EQ(stats.restored_inline, 1);
  EXPECT_EQ(stats.spilled_now, 0u);
  EXPECT_EQ(stats.parked_record_bytes, 0u);
  EXPECT_EQ(stats.active, 1u);
  ASSERT_FALSE(work.empty());
  EXPECT_EQ(CountSnapshotFiles(dir), 1u) << "unlinked before its DiskWork";
  manager->FinishDiskWork(std::move(work));
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
}

TEST_F(ServerSpillTest, AdoptedTokenRestoresOnlyThroughThePool) {
  // A token adopted from a predecessor has no record in memory: the
  // reactor declines it, and the pool's restore reads its file.
  std::string dir = MakeSpillDir("adopted");
  std::string token;
  {
    SessionManager old_gen = MakeManager(SpillOptions(dir, 0));
    token = old_gen.Create("prothymosin").ValueOrDie();
    ExpandRoot(old_gen, token);
    ASSERT_EQ(old_gen.SpillAll(), 1u);
  }
  SessionManager manager = MakeManager(SpillOptions(dir, 0));
  SessionManager::DiskWork work;
  EXPECT_FALSE(manager.TryWithSession(
      token, [](NavigationSession&) { return true; }, &work));
  EXPECT_TRUE(work.empty());
  EXPECT_EQ(manager.stats().restored, 0);
  EXPECT_EQ(manager.stats().spilled_now, 1u);

  size_t log_size = 0;
  Status s = manager.WithSession(token, [&](NavigationSession& session) {
    log_size = session.expand_log().size();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 1u);
  EXPECT_EQ(manager.stats().restored, 1);
  EXPECT_EQ(manager.stats().restored_inline, 0);
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
}

TEST_F(ServerSpillTest, LargeTreeRestoresOnlyThroughThePool) {
  // Building the ActiveTree and replaying grow with the tree, so the
  // reactor leaves a tree past kInlineRestoreMaxNodes to the pool.
  ::bionav::testing::RandomInstance instance(
      /*seed=*/11, /*hierarchy_nodes=*/8000, /*result_size=*/4000);
  ASSERT_GT(instance.nav->size(), SessionManager::kInlineRestoreMaxNodes);
  const EUtilsClient eutils = instance.corpus->MakeClient();
  std::string dir = MakeSpillDir("large_tree");
  SessionManagerOptions options = SpillOptions(dir, 50);
  options.clock = [this] { return now_ms_.load(); };
  SessionManager manager(&instance.hierarchy, &eutils,
                         MakeBioNavStrategyFactory(), options);
  std::string token = manager.Create("randquery").ValueOrDie();
  now_ms_ += 100;
  ASSERT_EQ(manager.SpillIdle(), 1u);

  SessionManager::DiskWork work;
  EXPECT_FALSE(manager.TryWithSession(
      token, [](NavigationSession&) { return true; }, &work));
  EXPECT_TRUE(work.empty());
  EXPECT_EQ(manager.stats().spilled_now, 1u);
  Status s = manager.WithSession(
      token, [](NavigationSession&) { return Status::OK(); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(manager.stats().restored, 1);
  EXPECT_EQ(manager.stats().restored_inline, 0);
}

TEST_F(ServerSpillTest, CloseRacingTheDeferredUnlinkLeavesNoFile) {
  std::string dir = MakeSpillDir("close_unlink");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string before = manager->Create("prothymosin").ValueOrDie();
  std::string during = manager->Create("prothymosin").ValueOrDie();
  now_ms_ += 100;
  ASSERT_EQ(manager->SpillIdle(), 2u);
  auto restore = [&](const std::string& token, SessionManager::DiskWork* work) {
    return manager->TryWithSession(
        token, [](NavigationSession&) { return true; }, work);
  };

  // Closed before its unlink runs: the unlink still removes the file.
  SessionManager::DiskWork first;
  ASSERT_TRUE(restore(before, &first));
  EXPECT_TRUE(manager->Close(before));
  manager->FinishDiskWork(std::move(first));
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);

  // Closed while its unlink is held: the close does not wait for it.
  SessionManager::DiskWork second;
  ASSERT_TRUE(restore(during, &second));
  store->HoldDeletes();
  std::thread unlinker([&] { manager->FinishDiskWork(std::move(second)); });
  store->AwaitHeld();
  EXPECT_TRUE(FinishesWhileWriteIsHeld(
      store, [&] { EXPECT_TRUE(manager->Close(during)); }));
  unlinker.join();
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  SessionManagerStats stats = manager->stats();
  EXPECT_EQ(stats.closed, 2);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.spilled_now, 0u);
}

TEST_F(ServerSpillTest, RespillRacingTheDeferredUnlinkLeavesOneFile) {
  std::string dir = MakeSpillDir("respill_unlink");
  GatedSpillStore* store = nullptr;
  auto manager = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
  std::string token = manager->Create("prothymosin").ValueOrDie();
  ExpandRoot(*manager, token);
  now_ms_ += 100;
  ASSERT_EQ(manager->SpillIdle(), 1u);
  auto restore = [&](SessionManager::DiskWork* work) {
    return manager->TryWithSession(
        token, [](NavigationSession&) { return true; }, work);
  };

  // Re-parked before its unlink runs: the spill writes over the stale
  // record and takes the file over, so the unlink leaves it alone.
  SessionManager::DiskWork first;
  ASSERT_TRUE(restore(&first));
  now_ms_ += 100;
  EXPECT_EQ(manager->SpillIdle(), 1u);
  manager->FinishDiskWork(std::move(first));
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);
  EXPECT_EQ(manager->stats().spilled_now, 1u);

  // Swept while its unlink is held: the sweep skips it without waiting,
  // and the next sweep parks it.
  SessionManager::DiskWork second;
  ASSERT_TRUE(restore(&second));
  now_ms_ += 100;
  store->HoldDeletes();
  std::thread unlinker([&] { manager->FinishDiskWork(std::move(second)); });
  store->AwaitHeld();
  EXPECT_TRUE(FinishesWhileWriteIsHeld(
      store, [&] { EXPECT_EQ(manager->SpillIdle(), 0u); }));
  unlinker.join();
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  EXPECT_EQ(manager->SpillIdle(), 1u);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u);

  // The parked state is the session's own, never a stale one.
  size_t log_size = 0;
  Status s = manager->WithSession(token, [&](NavigationSession& session) {
    log_size = session.expand_log().size();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 1u);
}

TEST_F(ServerSpillTest, SpillAllWithUnlinksPendingHandsEverySessionOver) {
  std::string dir = MakeSpillDir("handoff_unlink");
  std::string queued, unlinking;
  {
    GatedSpillStore* store = nullptr;
    auto old_gen = MakeGatedManager(SpillOptions(dir, 50), dir, &store);
    queued = old_gen->Create("prothymosin").ValueOrDie();
    ExpandRoot(*old_gen, queued);
    unlinking = old_gen->Create("apoptosis").ValueOrDie();
    ExpandRoot(*old_gen, unlinking);
    now_ms_ += 100;
    ASSERT_EQ(old_gen->SpillIdle(), 2u);
    SessionManager::DiskWork queued_work, unlinking_work;
    for (auto [token, work] : {std::pair{&queued, &queued_work},
                               std::pair{&unlinking, &unlinking_work}}) {
      ASSERT_TRUE(old_gen->TryWithSession(
          *token, [](NavigationSession&) { return true; }, work));
    }
    // One session's unlink is held mid-way, the other's not yet run: the
    // drain's SpillAll waits out the first and writes over the second.
    store->HoldDeletes();
    std::thread unlinker(
        [&] { old_gen->FinishDiskWork(std::move(unlinking_work)); });
    store->AwaitHeld();
    size_t spilled = 0;
    std::thread drain([&] { spilled = old_gen->SpillAll(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    store->Open();
    unlinker.join();
    drain.join();
    EXPECT_EQ(spilled, 2u);
    old_gen->FinishDiskWork(std::move(queued_work));
    EXPECT_EQ(CountSnapshotFiles(dir), 2u);
  }

  SessionManager new_gen = MakeManager(SpillOptions(dir, 0));
  EXPECT_EQ(new_gen.stats().spilled_now, 2u);
  for (const std::string& token : {queued, unlinking}) {
    size_t log_size = 0;
    Status s = new_gen.WithSession(token, [&](NavigationSession& session) {
      log_size = session.expand_log().size();
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << token << ": " << s.ToString();
    EXPECT_EQ(log_size, 1u) << token;
  }
}

TEST_F(ServerSpillTest, CloseDeletesParkedSnapshot) {
  std::string dir = MakeSpillDir("close");
  SessionManager manager = MakeManager(SpillOptions(dir, 50));

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  now_ms_ += 100;
  ASSERT_EQ(manager.SpillIdle(), 1u);
  ASSERT_EQ(CountSnapshotFiles(dir), 1u);

  EXPECT_TRUE(manager.Close(token.ValueOrDie()));
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  EXPECT_EQ(manager.stats().spilled_now, 0u);
  Status s = manager.WithSession(token.ValueOrDie(),
                                 [](NavigationSession&) { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(manager.Close(token.ValueOrDie()));
}

TEST_F(ServerSpillTest, CorruptSnapshotSurfacesAsNotFound) {
  std::string dir = MakeSpillDir("corrupt");
  Result<std::string> token = Status::NotFound("not created");
  {
    SessionManager old_gen = MakeManager(SpillOptions(dir, 50));
    token = old_gen.Create("prothymosin");
    ASSERT_TRUE(token.ok());
    now_ms_ += 100;
    ASSERT_EQ(old_gen.SpillIdle(), 1u);
  }

  // Truncate the parked record to half: checksum framing must reject it
  // and the manager must answer the touch with NotFound, not a crash. A
  // record is read from disk only when its token was adopted from a
  // predecessor (the manager that parked it keeps it in memory), so the
  // touch goes to the next generation.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".snap") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  SessionManager manager = MakeManager(SpillOptions(dir, 50));
  Status s = manager.WithSession(token.ValueOrDie(),
                                 [](NavigationSession&) { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.restore_failed, 1);
  EXPECT_EQ(stats.restored, 0);
  EXPECT_EQ(stats.spilled_now, 0u);  // The unreadable record was dropped.
}

TEST_F(ServerSpillTest, SpillAllHandsSessionsToTheNextManagerGeneration) {
  std::string dir = MakeSpillDir("handoff");

  std::string first_token, second_token;
  {
    SessionManager old_gen = MakeManager(SpillOptions(dir, 0));
    auto first = old_gen.Create("prothymosin");
    ASSERT_TRUE(first.ok());
    first_token = first.ValueOrDie();
    ExpandRoot(old_gen, first_token);
    auto second = old_gen.Create("apoptosis");
    ASSERT_TRUE(second.ok());
    second_token = second.ValueOrDie();
    // The warm-restart path: drain finished, park everything (idleness is
    // irrelevant), persist the token counter.
    EXPECT_EQ(old_gen.SpillAll(), 2u);
    EXPECT_EQ(old_gen.active(), 0u);
  }

  SessionManager new_gen = MakeManager(SpillOptions(dir, 0));
  EXPECT_EQ(new_gen.stats().spilled_now, 2u);

  // Parked dialogues keep working across the generation change...
  size_t log_size = 0;
  Status s = new_gen.WithSession(first_token, [&](NavigationSession& session) {
    log_size = session.expand_log().size();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log_size, 1u);
  ASSERT_TRUE(new_gen
                  .WithSession(second_token,
                               [](NavigationSession&) { return Status::OK(); })
                  .ok());

  // ...and the manifest keeps new tokens clear of the parked namespace.
  auto minted = new_gen.Create("necrosis");
  ASSERT_TRUE(minted.ok());
  EXPECT_NE(minted.ValueOrDie(), first_token);
  EXPECT_NE(minted.ValueOrDie(), second_token);
}

TEST_F(ServerSpillTest, ResidentHeapGaugeCollapsesWhenIdleSessionsSpill) {
  // The spill tier's memory-bounding claim, judged against the resident
  // gauge: parking every idle session must shrink the session heap by at
  // least 5x (here: to zero).
  std::string dir = MakeSpillDir("gauge");
  SessionManagerOptions options = SpillOptions(dir, 100);
  options.cache_enabled = false;
  SessionManager manager = MakeManager(options);

  constexpr int kSessions = 12;
  for (int i = 0; i < kSessions; ++i) {
    auto token = manager.Create("prothymosin");
    ASSERT_TRUE(token.ok());
    ExpandRoot(manager, token.ValueOrDie());
  }
  size_t before = manager.stats().resident_bytes;
  ASSERT_GT(before, 0u);

  now_ms_ += 1000;
  EXPECT_EQ(manager.SpillIdle(), static_cast<size_t>(kSessions));
  size_t after = manager.stats().resident_bytes;
  EXPECT_LE(after * 5, before);
  EXPECT_EQ(manager.stats().spilled_now, static_cast<size_t>(kSessions));

  // On-disk footprint is tiny: snapshots are replay logs, not trees.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".snap") continue;
    EXPECT_LT(std::filesystem::file_size(entry.path()), 4096u);
  }
}

TEST_F(ServerSpillTest, SpillDisabledIsInertAndUntyped) {
  SessionManager manager = MakeManager(SessionManagerOptions());
  EXPECT_FALSE(manager.spill_enabled());
  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  now_ms_ += 1'000'000;
  EXPECT_EQ(manager.SpillIdle(), 0u);
  EXPECT_EQ(manager.SpillAll(), 0u);
  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.spilled, 0);
  EXPECT_EQ(stats.spilled_now, 0u);
}

TEST_F(ServerSpillTest, TtlDoesNotReapParkedSessions) {
  // TTL destroys *resident* idlers; a parked snapshot lives until CLOSE or
  // restore (no trustworthy idle age survives a restart).
  std::string dir = MakeSpillDir("ttl");
  SessionManagerOptions options = SpillOptions(dir, 50);
  options.ttl_ms = 200;
  SessionManager manager = MakeManager(options);

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  now_ms_ += 100;
  ASSERT_EQ(manager.SpillIdle(), 1u);

  now_ms_ += 1'000'000;  // Far past TTL.
  Status s = manager.WithSession(token.ValueOrDie(),
                                 [](NavigationSession&) { return Status::OK(); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(manager.stats().expired_ttl, 0);
}

// ---------------------------------------------------------------------------
// Loopback wire test: a parked session resumes byte-identically, and its
// post-restore EXPAND matches an uninterrupted session's.
// ---------------------------------------------------------------------------

TEST(NavServerSpillE2E, RestoredWireSessionIsByteIdentical) {
  MiniFixture fixture;
  std::string dir = MakeSpillDir("e2e");

  NavServerOptions options;
  options.threads = 2;
  options.session.spill_dir = dir;
  options.session.spill_after_ms = 60'000;  // Sweep never fires mid-test.
  NavServer server(&fixture.mesh, fixture.eutils.get(),
                   MakeBioNavStrategyFactory(), options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NavClient& client = *connected.ValueOrDie();

  // Session A: QUERY + EXPAND root, then record its rendered view.
  auto opened = client.Query("prothymosin");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::string token = opened.ValueOrDie().token;
  auto revealed = client.Expand(token, NavigationTree::kRoot);
  ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
  ASSERT_FALSE(revealed.ValueOrDie().empty());
  auto view_before = client.View(token);
  ASSERT_TRUE(view_before.ok()) << view_before.status().ToString();

  // Park everything (what SIGUSR2 does after the drain), then touch the
  // token over the wire: the server must restore transparently.
  ASSERT_GE(server.session_manager().SpillAll(), 1u);
  EXPECT_EQ(server.session_manager().active(), 0u);

  auto view_after = client.View(token);
  ASSERT_TRUE(view_after.ok()) << view_after.status().ToString();
  EXPECT_EQ(view_after.ValueOrDie(), view_before.ValueOrDie());
  EXPECT_GE(server.session_manager().stats().restored, 1);

  // The restored session's next EXPAND must cost exactly what an
  // uninterrupted session's does: run the same action on a fresh twin.
  NavNodeId next = revealed.ValueOrDie().front();
  auto twin = client.Query("prothymosin");
  ASSERT_TRUE(twin.ok());
  const std::string twin_token = twin.ValueOrDie().token;
  ASSERT_TRUE(client.Expand(twin_token, NavigationTree::kRoot).ok());

  auto expand_restored = client.Expand(token, next);
  auto expand_twin = client.Expand(twin_token, next);
  if (expand_twin.ok()) {
    ASSERT_TRUE(expand_restored.ok())
        << expand_restored.status().ToString();
    EXPECT_EQ(expand_restored.ValueOrDie(), expand_twin.ValueOrDie());
    auto final_restored = client.View(token);
    auto final_twin = client.View(twin_token);
    ASSERT_TRUE(final_restored.ok());
    ASSERT_TRUE(final_twin.ok());
    EXPECT_EQ(final_restored.ValueOrDie(), final_twin.ValueOrDie());
  } else {
    // `next` was a leaf reveal: both sides must agree it is not expandable.
    EXPECT_FALSE(expand_restored.ok());
  }

  EXPECT_TRUE(client.CloseSession(token).ok());
  EXPECT_TRUE(client.CloseSession(twin_token).ok());
  server.Shutdown();
}

TEST(NavServerSpillE2E, CorruptRecordRepliesUnknownSessionAndLeavesNoFile) {
  // A record only on disk (adopted from a predecessor) is restored by the
  // pool; when it does not decode, the reply is UNKNOWN_SESSION naming
  // why, and the file is gone by the time the reply arrives.
  MiniFixture fixture;
  std::string dir = MakeSpillDir("e2e_corrupt");
  std::string token;
  {
    SessionManagerOptions options;
    options.spill_dir = dir;
    SessionManager predecessor(&fixture.mesh, fixture.eutils.get(),
                               MakeBioNavStrategyFactory(), options);
    token = predecessor.Create("prothymosin").ValueOrDie();
    ASSERT_EQ(predecessor.SpillAll(), 1u);
  }
  std::string half;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".snap") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    half = bytes.substr(0, bytes.size() / 2);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }
  const Status corrupt = DecodeSnapshot(half).status();
  ASSERT_FALSE(corrupt.ok());

  NavServerOptions options;
  options.threads = 1;
  options.session.spill_dir = dir;
  NavServer server(&fixture.mesh, fixture.eutils.get(),
                   MakeBioNavStrategyFactory(), options);
  ASSERT_TRUE(server.Start().ok());
  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Request show;
  show.op = RequestOp::kShowResults;
  show.token = token;
  show.node = NavigationTree::kRoot;
  auto reply = connected.ValueOrDie()->CallRaw(show);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.ValueOrDie().BoolOr("ok", true));
  EXPECT_EQ(reply.ValueOrDie().StringOr("error", ""), "UNKNOWN_SESSION");
  EXPECT_EQ(reply.ValueOrDie().StringOr("message", ""),
            "session '" + token + "' unrecoverable: " + corrupt.ToString());
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  SessionManagerStats stats = server.session_manager().stats();
  EXPECT_EQ(stats.restore_failed, 1);
  EXPECT_EQ(stats.spilled_now, 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace bionav
