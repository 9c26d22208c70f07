// The shared cut memo: one CutMemo per query artifact answers the EXPANDs
// of every session of the query — later sessions, sessions restored from
// a snapshot, and concurrent sessions — with cuts identical to a
// from-scratch recompute; entries of one (root, count) key with different
// holes coexist and each validates only for its own member set; entries
// made under different strategy options never answer each other; the memo
// is counted in the artifact's footprint, bounded by its entry cap, and
// never serialized.

#include "algo/cut_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bionav.h"
#include "persist/session_snapshot.h"
#include "test_support.h"
#include "util/rng.h"

namespace bionav {
namespace {

using ::bionav::testing::RandomInstance;

constexpr NavNodeId kRoot = NavigationTree::kRoot;

/// One query's artifact bundle plus the client sessions need.
struct QueryFixture {
  explicit QueryFixture(uint64_t seed)
      : instance(seed, /*hierarchy_nodes=*/500, /*result_size=*/300,
                 /*target_depth=*/4),
        eutils(instance.corpus->MakeClient()),
        keyword(instance.corpus->queries[0].spec.keyword),
        artifacts(instance.MakeBundle()) {}

  RandomInstance instance;
  EUtilsClient eutils;
  std::string keyword;
  std::shared_ptr<const QueryArtifacts> artifacts;
};

HeuristicReducedOptOptions Options(bool incremental, int max_partitions = 10) {
  HeuristicReducedOptOptions options;
  options.incremental = incremental;
  options.max_partitions = max_partitions;
  return options;
}

/// A BioNav factory that also hands back the strategy it built, so a test
/// can read the session's ExpandStats.
StrategyFactory Capturing(HeuristicReducedOpt** out,
                          HeuristicReducedOptOptions options = Options(true)) {
  return [out, options](const CostModel* model) {
    auto strategy = std::make_unique<HeuristicReducedOpt>(model, options);
    *out = strategy.get();
    return std::unique_ptr<ExpandStrategy>(std::move(strategy));
  };
}

/// The cut a memo-less strategy chooses for `root` on `active` right now.
EdgeCut FromScratch(const ActiveTree& active, const CostModel& model,
                    NavNodeId root, int max_partitions = 10) {
  HeuristicReducedOpt scratch(&model, Options(false, max_partitions));
  return scratch.ChooseEdgeCut(active, root);
}

/// What one scripted session did: per EXPAND, the cut and whether the
/// memo answered it.
struct Walk {
  std::vector<std::vector<NavNodeId>> cuts;
  std::vector<bool> hits;
  int mismatches = 0;  // EXPANDs whose cut differed from a recompute.
};

/// Drives `session` through `steps` random steps seeded by `seed`: EXPANDs
/// of random expandable components and, one step in four, a run of one to
/// three BACKTRACKs — the shapes that hit, miss and go stale. The choices
/// depend only on the seed and the session's own active tree, so equal
/// seeds over equal cuts replay the same script. With `check`, every cut
/// is compared against a from-scratch recompute.
Walk Drive(NavigationSession* session, HeuristicReducedOpt* strategy,
          uint64_t seed, int steps, bool check = true) {
  Walk run;
  Rng rng(seed);
  const ActiveTree& active = session->active_tree();
  const NavNodeId n =
      static_cast<NavNodeId>(session->navigation_tree().size());
  for (int step = 0; step < steps; ++step) {
    std::vector<NavNodeId> expandable;
    for (NavNodeId id = 0; id < n; ++id) {
      if (active.IsVisible(id) &&
          active.ComponentSize(active.ComponentOf(id)) >= 2) {
        expandable.push_back(id);
      }
    }
    if (!expandable.empty()) {
      NavNodeId root = active.ComponentRoot(
          active.ComponentOf(expandable[rng.Uniform(expandable.size())]));
      std::vector<NavNodeId> expect;
      if (check) {
        expect = FromScratch(active, session->cost_model(), root).cut_children;
      }
      EXPECT_TRUE(session->Expand(root).ok());
      const std::vector<NavNodeId>& got =
          session->expand_log().back().cut.cut_children;
      if (check && got != expect) ++run.mismatches;
      run.cuts.push_back(got);
      run.hits.push_back(strategy->last_stats().incremental_hit);
    }
    if (rng.Uniform(4) == 0) {
      int pops = 1 + static_cast<int>(rng.Uniform(3));
      for (int p = 0; p < pops; ++p) {
        if (!session->Backtrack()) break;
      }
    }
  }
  return run;
}

TEST(CutMemoShared, SecondSessionHitsEveryShapeTheFirstCut) {
  QueryFixture q(3);
  HeuristicReducedOpt* first_strategy = nullptr;
  NavigationSession first(&q.eutils, q.artifacts, q.keyword,
                          Capturing(&first_strategy));
  Walk a = Drive(&first, first_strategy, /*seed=*/11, /*steps=*/60);
  ASSERT_GT(a.cuts.size(), 20u);
  EXPECT_EQ(a.mismatches, 0);
  EXPECT_EQ(&first_strategy->cut_memo(), &q.artifacts->cut_memo)
      << "a session must answer from its artifact's memo";
  EXPECT_GT(q.artifacts->cut_memo.size(), 0u);

  // The same script in a second session walks only shapes the first one
  // cut: every EXPAND is a memo hit, with the recompute's cut.
  HeuristicReducedOpt* second_strategy = nullptr;
  NavigationSession second(&q.eutils, q.artifacts, q.keyword,
                           Capturing(&second_strategy));
  Walk b = Drive(&second, second_strategy, /*seed=*/11, /*steps=*/60);
  EXPECT_EQ(b.mismatches, 0);
  EXPECT_EQ(b.cuts, a.cuts);
  for (size_t i = 0; i < b.hits.size(); ++i) {
    EXPECT_TRUE(b.hits[i]) << "EXPAND " << i << " of the second session";
  }
}

TEST(CutMemoShared, RestoredSessionHitsOnItsFirstExpandOfASeenShape) {
  QueryFixture q(4);
  HeuristicReducedOpt* strategy = nullptr;
  NavigationSession original(&q.eutils, q.artifacts, q.keyword,
                             Capturing(&strategy));
  Drive(&original, strategy, /*seed=*/5, /*steps=*/6, /*check=*/false);
  ASSERT_FALSE(original.expand_log().empty());

  // Park the session, then let the original take one more EXPAND — a shape
  // the restored twin, whose strategy is new, has never cut itself.
  std::string record = EncodeSnapshot(SnapshotSession(original, "t", 0));
  const ActiveTree& active = original.active_tree();
  NavNodeId next = kInvalidNavNode;
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(active.nav().size());
       ++id) {
    if (active.IsVisible(id) &&
        active.ComponentSize(active.ComponentOf(id)) >= 2) {
      next = id;
      break;
    }
  }
  ASSERT_NE(next, kInvalidNavNode);
  ASSERT_TRUE(original.Expand(next).ok());

  auto decoded = DecodeSnapshot(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  HeuristicReducedOpt* restored_strategy = nullptr;
  auto restored = RestoreSession(decoded.ValueOrDie(), &q.eutils, q.artifacts,
                                 Capturing(&restored_strategy));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  NavigationSession& twin = *restored.ValueOrDie();
  const EdgeCut expect =
      FromScratch(twin.active_tree(), twin.cost_model(), next);
  ASSERT_TRUE(twin.Expand(next).ok());
  EXPECT_TRUE(restored_strategy->last_stats().incremental_hit)
      << "the restored session's first EXPAND must hit the shared memo";
  EXPECT_EQ(twin.expand_log().back().cut.cut_children, expect.cut_children);
  EXPECT_EQ(twin.expand_log().back().cut.cut_children,
            original.expand_log().back().cut.cut_children);
}

/// Two leaves of one navigation tree: cutting either off the root leaves
/// a root component of the same count with different holes.
std::pair<NavNodeId, NavNodeId> TwoLeaves(const NavigationTree& nav) {
  std::vector<NavNodeId> leaves;
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    if (nav.SubtreeEnd(id) == id + 1) leaves.push_back(id);
  }
  EXPECT_GE(leaves.size(), 3u);
  return {leaves[0], leaves[leaves.size() / 2]};
}

TEST(CutMemoKey, SameKeyDifferentHolesCoexistAndEachValidatesOnlyForItsOwn) {
  QueryFixture q(5);
  const NavigationTree& nav = *q.artifacts->nav;
  const CostModel& model = *q.artifacts->cost_model;
  const auto [a, b] = TwoLeaves(nav);
  ActiveTree without_a(&nav);
  ActiveTree without_b(&nav);
  ASSERT_TRUE(without_a.ApplyEdgeCut(kRoot, {{a}}).ok());
  ASSERT_TRUE(without_b.ApplyEdgeCut(kRoot, {{b}}).ok());
  auto root_size = [](const ActiveTree& active) {
    return active.ComponentSize(active.ComponentOf(kRoot));
  };
  ASSERT_EQ(root_size(without_a), root_size(without_b));

  // Through the strategy: two sessions' strategies on one memo.
  CutMemo& memo = q.artifacts->cut_memo;
  HeuristicReducedOpt first(&model);
  HeuristicReducedOpt second(&model);
  first.ShareCutMemo(&memo);
  second.ShareCutMemo(&memo);
  EdgeCut cut_a = first.ChooseEdgeCut(without_a, kRoot);
  EXPECT_FALSE(first.last_stats().incremental_hit);
  EdgeCut cut_b = second.ChooseEdgeCut(without_b, kRoot);
  EXPECT_FALSE(second.last_stats().incremental_hit)
      << "an entry with foreign holes must not answer";
  EXPECT_EQ(memo.size(), 2u) << "the stale entry must stay for its owner";
  EXPECT_EQ(cut_a.cut_children,
            FromScratch(without_a, model, kRoot).cut_children);
  EXPECT_EQ(cut_b.cut_children,
            FromScratch(without_b, model, kRoot).cut_children);
  // Each session now hits its own entry, in either order.
  EXPECT_EQ(second.ChooseEdgeCut(without_a, kRoot).cut_children,
            cut_a.cut_children);
  EXPECT_TRUE(second.last_stats().incremental_hit);
  EXPECT_EQ(first.ChooseEdgeCut(without_b, kRoot).cut_children,
            cut_b.cut_children);
  EXPECT_TRUE(first.last_stats().incremental_hit);

  // Directly: the entries validate only for their own member sets. A third
  // tree with the same count and yet other holes finds both stale.
  const CutMemo::Options options{10, HeuristicReducedOptOptions().bound_growth};
  CutMemo::Probe probe_a = memo.Find(options, without_a, kRoot);
  CutMemo::Probe probe_b = memo.Find(options, without_b, kRoot);
  ASSERT_NE(probe_a.hit, nullptr);
  ASSERT_NE(probe_b.hit, nullptr);
  EXPECT_EQ(probe_a.hit->holes, std::vector<NavNodeId>{a});
  EXPECT_EQ(probe_b.hit->holes, std::vector<NavNodeId>{b});
  NavNodeId c = kInvalidNavNode;
  for (NavNodeId id = static_cast<NavNodeId>(nav.size()) - 1; id > 0; --id) {
    if (nav.SubtreeEnd(id) == id + 1 && id != a && id != b) {
      c = id;
      break;
    }
  }
  ASSERT_NE(c, kInvalidNavNode);
  ActiveTree without_c(&nav);
  ASSERT_TRUE(without_c.ApplyEdgeCut(kRoot, {{c}}).ok());
  CutMemo::Probe probe_c = memo.Find(options, without_c, kRoot);
  EXPECT_EQ(probe_c.hit, nullptr);
  EXPECT_TRUE(probe_c.stale);
}

TEST(CutMemoKey, StrategyOptionsNeverServeEachOther) {
  QueryFixture q(6);
  const NavigationTree& nav = *q.artifacts->nav;
  const CostModel& model = *q.artifacts->cost_model;
  ActiveTree active(&nav);
  ASSERT_GT(active.ComponentSize(active.ComponentOf(kRoot)), 20u);

  // Sessions of one artifact under K = 10 and K = 4.
  HeuristicReducedOpt* wide = nullptr;
  HeuristicReducedOpt* narrow = nullptr;
  NavigationSession wide_session(&q.eutils, q.artifacts, q.keyword,
                                 Capturing(&wide, Options(true, 10)));
  NavigationSession narrow_session(&q.eutils, q.artifacts, q.keyword,
                                   Capturing(&narrow, Options(true, 4)));
  for (int round = 0; round < 2; ++round) {
    EdgeCut w = wide->ChooseEdgeCut(active, kRoot);
    EXPECT_EQ(wide->last_stats().incremental_hit, round == 1);
    EdgeCut n = narrow->ChooseEdgeCut(active, kRoot);
    EXPECT_EQ(narrow->last_stats().incremental_hit, round == 1)
        << "K=4 must not be answered by the K=10 entry";
    EXPECT_EQ(w.cut_children,
              FromScratch(active, model, kRoot, 10).cut_children);
    EXPECT_EQ(n.cut_children,
              FromScratch(active, model, kRoot, 4).cut_children);
  }
  EXPECT_EQ(q.artifacts->cut_memo.size(), 2u);

  // The growth of the weight bound is part of the key too.
  HeuristicReducedOptOptions slow = Options(true, 10);
  slow.bound_growth = 1.1;
  HeuristicReducedOpt slow_growth(&model, slow);
  slow_growth.ShareCutMemo(&q.artifacts->cut_memo);
  slow_growth.ChooseEdgeCut(active, kRoot);
  EXPECT_FALSE(slow_growth.last_stats().incremental_hit);
  EXPECT_EQ(q.artifacts->cut_memo.size(), 3u);
}

/// Cut fingerprint of one session: every EXPAND's cut, in order.
std::string Fingerprint(const Walk& run) {
  std::string out;
  for (const std::vector<NavNodeId>& cut : run.cuts) {
    for (NavNodeId id : cut) out += std::to_string(id) + ",";
    out += ";";
  }
  return out;
}

TEST(CutMemoConcurrent, FourThreadsMatchASequentialRun) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 3;
  constexpr int kSteps = 40;
  // Session i runs script i % 5, so concurrent sessions walk the same
  // shapes and race on the same keys.
  auto script = [](int session) { return uint64_t{100} + session % 5; };

  QueryFixture sequential(7);
  std::vector<std::string> want(kThreads * kSessionsPerThread);
  for (int i = 0; i < kThreads * kSessionsPerThread; ++i) {
    HeuristicReducedOpt* strategy = nullptr;
    NavigationSession session(&sequential.eutils, sequential.artifacts,
                              sequential.keyword, Capturing(&strategy));
    Walk run = Drive(&session, strategy, script(i), kSteps);
    EXPECT_EQ(run.mismatches, 0) << "session " << i;
    want[static_cast<size_t>(i)] = Fingerprint(run);
  }

  QueryFixture shared(7);
  std::vector<std::string> got(want.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kSessionsPerThread; ++k) {
        const int i = t * kSessionsPerThread + k;
        HeuristicReducedOpt* strategy = nullptr;
        NavigationSession session(&shared.eutils, shared.artifacts,
                                  shared.keyword, Capturing(&strategy));
        Walk run = Drive(&session, strategy, script(i), kSteps,
                         /*check=*/false);
        got[static_cast<size_t>(i)] = Fingerprint(run);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "session " << i;
  }
  EXPECT_GT(shared.artifacts->cut_memo.size(), 0u);
}

TEST(CutMemoFootprint, GrowsWithEntriesAndTheCapBoundsIt) {
  QueryFixture q(8);
  const size_t base = q.artifacts->MemoryFootprint();
  EXPECT_EQ(q.artifacts->cut_memo.bytes(), 0u);
  HeuristicReducedOpt* strategy = nullptr;
  NavigationSession session(&q.eutils, q.artifacts, q.keyword,
                            Capturing(&strategy));
  size_t entries = 0;
  Rng rng(21);
  for (int step = 0; step < 30; ++step) {
    Drive(&session, strategy, rng.Next(), 1, /*check=*/false);
    const size_t now = q.artifacts->cut_memo.size();
    EXPECT_GE(now, entries) << "an uncapped memo only grows";
    entries = now;
    EXPECT_EQ(q.artifacts->MemoryFootprint(),
              base + q.artifacts->cut_memo.bytes());
  }
  ASSERT_GT(entries, 5u);
  const size_t uncapped_bytes = q.artifacts->cut_memo.bytes();
  EXPECT_GT(uncapped_bytes, entries * sizeof(CutMemo::Entry));

  // Under a cap of 3 the same walk never holds more than 3 entries.
  QueryFixture capped(8);
  const size_t capped_base = capped.artifacts->MemoryFootprint();
  HeuristicReducedOptOptions options = Options(true);
  options.incremental_max_entries = 3;
  NavigationSession small(&capped.eutils, capped.artifacts, capped.keyword,
                          Capturing(&strategy, options));
  Rng replay(21);
  size_t peak = 0;
  for (int step = 0; step < 30; ++step) {
    Drive(&small, strategy, replay.Next(), 1, /*check=*/false);
    EXPECT_LE(capped.artifacts->cut_memo.size(), 3u);
    peak = std::max(peak, capped.artifacts->cut_memo.bytes());
  }
  EXPECT_LT(peak, uncapped_bytes);
  capped.artifacts->cut_memo.Clear();
  EXPECT_EQ(capped.artifacts->cut_memo.bytes(), 0u);
  EXPECT_EQ(capped.artifacts->MemoryFootprint(), capped_base);
}

TEST(CutMemoFootprint, MemoIsNotSerialized) {
  QueryFixture q(9);
  const std::string empty = q.artifacts->Serialize();
  HeuristicReducedOpt* strategy = nullptr;
  NavigationSession session(&q.eutils, q.artifacts, q.keyword,
                            Capturing(&strategy));
  Drive(&session, strategy, /*seed=*/3, /*steps=*/10, /*check=*/false);
  ASSERT_GT(q.artifacts->cut_memo.size(), 0u);
  EXPECT_EQ(q.artifacts->Serialize(), empty) << "BNA1 bytes must not move";
  auto fetched = QueryArtifacts::Deserialize(q.instance.hierarchy, empty);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched.ValueOrDie()->cut_memo.size(), 0u);
}

}  // namespace
}  // namespace bionav
