// SessionManager tests: token lifecycle, TTL expiry with an injected
// clock, LRU capacity eviction, counters, and concurrent
// create/operate/close traffic (run under BIONAV_SANITIZE=thread to verify
// the locking).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"
#include "test_support.h"

namespace bionav {
namespace {

using bionav::testing::MiniFixture;

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManager MakeManager(SessionManagerOptions options) {
    return SessionManager(&fixture_.mesh, fixture_.eutils.get(),
                          MakeBioNavStrategyFactory(), options);
  }

  MiniFixture fixture_;
};

TEST_F(SessionManagerTest, CreateOperateClose) {
  SessionManager manager = MakeManager(SessionManagerOptions());
  size_t result_size = 0;
  auto token = manager.Create("prothymosin", &result_size);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_EQ(result_size, 8u);
  EXPECT_EQ(manager.active(), 1u);

  // EXPAND the root, then SHOWRESULTS on it.
  int revealed = -1;
  Status s = manager.WithSession(
      token.ValueOrDie(), [&](NavigationSession& session) {
        auto r = session.Expand(NavigationTree::kRoot);
        if (!r.ok()) return r.status();
        revealed = static_cast<int>(r.ValueOrDie().size());
        return session.ShowResults(NavigationTree::kRoot).status();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(revealed, 0);

  EXPECT_TRUE(manager.Close(token.ValueOrDie()));
  EXPECT_FALSE(manager.Close(token.ValueOrDie()));  // Already closed.
  EXPECT_EQ(manager.active(), 0u);

  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.created, 1);
  EXPECT_EQ(stats.closed, 1);
  EXPECT_EQ(stats.operations, 1);
}

TEST_F(SessionManagerTest, DeadTokenIsNotFound) {
  SessionManager manager = MakeManager(SessionManagerOptions());
  Status s = manager.WithSession(
      "never-created", [](NavigationSession&) { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);

  // Operation errors pass through untouched (contract: NotFound only for
  // dead tokens).
  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  Status op = manager.WithSession(
      token.ValueOrDie(),
      [](NavigationSession&) { return Status::InvalidArgument("mine"); });
  EXPECT_EQ(op.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(op.message(), "mine");
}

TEST_F(SessionManagerTest, TtlExpiryWithInjectedClock) {
  int64_t now_ms = 0;
  SessionManagerOptions options;
  options.ttl_ms = 1000;
  options.clock = [&now_ms] { return now_ms; };
  SessionManager manager = MakeManager(options);

  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());

  // Touch at t=900: refreshes the stamp.
  now_ms = 900;
  EXPECT_TRUE(manager
                  .WithSession(token.ValueOrDie(),
                               [](NavigationSession&) { return Status::OK(); })
                  .ok());

  // t=1800 is only 900ms after the touch — still live.
  now_ms = 1800;
  EXPECT_TRUE(manager
                  .WithSession(token.ValueOrDie(),
                               [](NavigationSession&) { return Status::OK(); })
                  .ok());

  // t=3000 is 1200ms idle — expired.
  now_ms = 3000;
  Status s = manager.WithSession(
      token.ValueOrDie(), [](NavigationSession&) { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.active(), 0u);
  EXPECT_EQ(manager.stats().expired_ttl, 1);
}

TEST_F(SessionManagerTest, PinnedSessionIsNotTtlExpiredMidOperation) {
  std::atomic<int64_t> now_ms{0};
  SessionManagerOptions options;
  options.ttl_ms = 1000;
  options.clock = [&now_ms] { return now_ms.load(); };
  SessionManager manager = MakeManager(options);
  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  const std::string tok = token.ValueOrDie();

  // Op A pins the session and blocks inside its callback.
  std::promise<void> a_entered;
  std::promise<void> release_a;
  std::shared_future<void> release = release_a.get_future().share();
  NavigationSession* a_session = nullptr;
  Status a_status;
  std::thread a([&] {
    a_status = manager.WithSession(tok, [&](NavigationSession& session) {
      a_session = &session;
      a_entered.set_value();
      release.wait();
      return Status::OK();
    });
  });
  a_entered.get_future().wait();

  // The clock jumps past the TTL while A still holds the pin. A second
  // touch must find the session live and queue behind A.
  now_ms = 5000;
  std::atomic<bool> b_done{false};
  NavigationSession* b_session = nullptr;
  Status b_status;
  std::thread b([&] {
    b_status = manager.WithSession(tok, [&](NavigationSession& session) {
      b_session = &session;
      return Status::OK();
    });
    b_done = true;
  });
  // Release A only once B has pinned too (or already failed).
  while (manager.stats().operations < 2 && !b_done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release_a.set_value();
  a.join();
  b.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(b_session, a_session);

  // A touch after A finished: its release stamped the jumped clock.
  NavigationSession* c_session = nullptr;
  Status c_status = manager.WithSession(tok, [&](NavigationSession& session) {
    c_session = &session;
    return Status::OK();
  });
  EXPECT_TRUE(c_status.ok()) << c_status.ToString();
  EXPECT_EQ(c_session, a_session);
  EXPECT_EQ(manager.active(), 1u);
  EXPECT_EQ(manager.stats().expired_ttl, 0);
}

TEST_F(SessionManagerTest, TtlZeroDisablesExpiry) {
  int64_t now_ms = 0;
  SessionManagerOptions options;
  options.ttl_ms = 0;
  options.clock = [&now_ms] { return now_ms; };
  SessionManager manager = MakeManager(options);
  auto token = manager.Create("prothymosin");
  ASSERT_TRUE(token.ok());
  now_ms = int64_t{365} * 24 * 3600 * 1000;
  EXPECT_TRUE(manager
                  .WithSession(token.ValueOrDie(),
                               [](NavigationSession&) { return Status::OK(); })
                  .ok());
}

TEST_F(SessionManagerTest, LruEvictionAtCapacity) {
  int64_t now_ms = 0;
  SessionManagerOptions options;
  options.max_sessions = 2;
  options.ttl_ms = 0;
  options.clock = [&now_ms] { return now_ms; };
  SessionManager manager = MakeManager(options);

  now_ms = 1;
  std::string a = manager.Create("prothymosin").ValueOrDie();
  now_ms = 2;
  std::string b = manager.Create("prothymosin").ValueOrDie();
  EXPECT_EQ(manager.active(), 2u);

  // Touch a, so b is now the least recently used.
  now_ms = 3;
  EXPECT_TRUE(
      manager.WithSession(a, [](NavigationSession&) { return Status::OK(); })
          .ok());

  now_ms = 4;
  std::string c = manager.Create("prothymosin").ValueOrDie();
  EXPECT_EQ(manager.active(), 2u);
  EXPECT_EQ(manager.stats().evicted_lru, 1);

  // b was evicted; a and c are live.
  EXPECT_EQ(manager.WithSession(b, [](NavigationSession&) {
    return Status::OK();
  }).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(
      manager.WithSession(a, [](NavigationSession&) { return Status::OK(); })
          .ok());
  EXPECT_TRUE(
      manager.WithSession(c, [](NavigationSession&) { return Status::OK(); })
          .ok());
}

TEST_F(SessionManagerTest, LruEvictionSkipsPinnedSessions) {
  int64_t now_ms = 0;
  SessionManagerOptions options;
  options.max_sessions = 2;
  options.ttl_ms = 0;
  options.clock = [&now_ms] { return now_ms; };
  SessionManager manager = MakeManager(options);
  std::string a = manager.Create("prothymosin").ValueOrDie();
  std::string b = manager.Create("prothymosin").ValueOrDie();

  // An op pins `a`; touching `b` afterwards leaves the pinned `a` as the
  // least recently used.
  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  std::thread op([&] {
    EXPECT_TRUE(manager
                    .WithSession(a,
                                 [&](NavigationSession&) {
                                   entered.set_value();
                                   released.wait();
                                   return Status::OK();
                                 })
                    .ok());
  });
  entered.get_future().wait();
  now_ms = 1;
  EXPECT_TRUE(
      manager.WithSession(b, [](NavigationSession&) { return Status::OK(); })
          .ok());

  // The victim is the least recently used session that is not pinned.
  now_ms = 2;
  std::string c = manager.Create("prothymosin").ValueOrDie();
  release.set_value();
  op.join();
  EXPECT_EQ(manager.stats().evicted_lru, 1);
  EXPECT_EQ(manager.WithSession(b, [](NavigationSession&) {
    return Status::OK();
  }).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(
      manager.WithSession(a, [](NavigationSession&) { return Status::OK(); })
          .ok());
  EXPECT_TRUE(
      manager.WithSession(c, [](NavigationSession&) { return Status::OK(); })
          .ok());
}

TEST_F(SessionManagerTest, ConcurrentCreateOperateCloseUnderEviction) {
  SessionManagerOptions options;
  options.max_sessions = 4;  // Far below the traffic — eviction churns.
  SessionManager manager = MakeManager(options);

  constexpr int kSessions = 32;
  std::atomic<int> ok_ops{0};
  std::atomic<int> dead_tokens{0};
  ThreadPool pool(4);
  for (int i = 0; i < kSessions; ++i) {
    pool.Submit([&, i] {
      auto token = manager.Create("prothymosin");
      ASSERT_TRUE(token.ok());
      // The session may be LRU-evicted by a concurrent Create before we
      // get to use it; both outcomes are legal, crashes/races are not.
      Status s = manager.WithSession(
          token.ValueOrDie(), [&](NavigationSession& session) {
            auto r = session.Expand(NavigationTree::kRoot);
            return r.ok() ? Status::OK() : r.status();
          });
      if (s.ok()) {
        ok_ops.fetch_add(1);
      } else {
        ASSERT_EQ(s.code(), StatusCode::kNotFound);
        dead_tokens.fetch_add(1);
      }
      if (i % 2 == 0) manager.Close(token.ValueOrDie());
    });
  }
  pool.Wait();

  SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.created, kSessions);
  EXPECT_LE(manager.active(), 4u);
  EXPECT_EQ(ok_ops.load() + dead_tokens.load(), kSessions);
  EXPECT_GT(stats.evicted_lru, 0);
}

TEST_F(SessionManagerTest, ConcurrentOpsOnOneSessionSerialize) {
  SessionManager manager = MakeManager(SessionManagerOptions());
  std::string token = manager.Create("prothymosin").ValueOrDie();

  // Hammer one session from many threads: per-session mutex must keep the
  // ActiveTree consistent (expand/backtrack are stateful).
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      Status s = manager.WithSession(token, [](NavigationSession& session) {
        auto visible = session.FindVisibleByLabel("MeSH");
        auto r = session.Expand(visible != kInvalidNavNode
                                    ? visible
                                    : NavigationTree::kRoot);
        (void)r;  // May fail (already expanded) — that's fine.
        session.Backtrack();
        return Status::OK();
      });
      ASSERT_TRUE(s.ok());
    });
  }
  pool.Wait();
  EXPECT_EQ(manager.stats().operations, 16);
}

}  // namespace
}  // namespace bionav
