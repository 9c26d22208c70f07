// Property suite for the incremental navigation engine and its serving
// surface: (1) with the cross-EXPAND memo on, Heuristic-ReducedOpt chooses
// byte-identical cuts (and therefore identical navigation costs) as a
// from-scratch recompute across random sessions with deep expand chains and
// interleaved BACKTRACK/FIND, for both DP-reuse configurations; (2) the
// column-only navigation tree, built or decoded, matches structural
// oracles derived from parent links alone; (3) BATCH_EXPAND equals the same
// cuts applied one EXPAND at a time, round-trips both wire codecs, relays
// through the router, and spill/restore of a batch-expanded session
// replays to a byte-identical VIEW.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bionav.h"
#include "test_support.h"
#include "util/rng.h"

namespace bionav {
namespace {

using ::bionav::testing::MatchesStructuralOracles;
using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;

// ---------------------------------------------------------------------------
// (1) Incremental == from-scratch, bit for bit
// ---------------------------------------------------------------------------

class IncrementalEngineProperty : public ::testing::TestWithParam<uint64_t> {};

/// Drives one random session comparing `memoized` (incremental on, state
/// alive across every step) against a reference that can never benefit
/// from the memo. With reuse_dp off the reference is rebuilt before each
/// ChooseEdgeCut — a true from-scratch recompute. With reuse_dp on the
/// reference is a long-lived twin with only the incremental flag cleared:
/// the DP-reuse path is history-dependent by design (cached answers keep
/// supernode granularity), so the property there is that `incremental` is
/// an exact no-op on it. Every chosen cut must be byte-identical. The
/// session interleaves FIND-style descents (expand the component holding a
/// target until visible), random frontier expansions, and random BACKTRACK
/// runs — the shapes that hit, miss and invalidate the memo.
void RunLockstepSession(uint64_t seed, bool reuse_dp) {
  RandomInstance inst(seed, 400, 50);
  const NavigationTree& nav = *inst.nav;
  CostModel model(inst.nav.get());

  HeuristicReducedOptOptions memo_options;
  memo_options.incremental = true;
  memo_options.reuse_dp = reuse_dp;
  HeuristicReducedOpt memoized(&model, memo_options);

  HeuristicReducedOptOptions scratch_options;
  scratch_options.incremental = false;
  scratch_options.reuse_dp = reuse_dp;
  HeuristicReducedOpt long_lived_reference(&model, scratch_options);

  ActiveTree active(inst.nav.get());
  Rng rng(seed * 7 + 13);
  NavNodeId target = nav.NodeOfConcept(inst.target());
  ASSERT_NE(target, kInvalidNavNode);

  int hits = 0;
  int expands = 0;
  for (int step = 0; step < 120; ++step) {
    // Pick the component to expand: half the time drive toward the FIND
    // target (re-descending after backtracks), otherwise a random
    // expandable component.
    NavNodeId root = kInvalidNavNode;
    if (rng.Uniform(2) == 0 && !active.IsVisible(target)) {
      root = active.ComponentRoot(active.ComponentOf(target));
    } else {
      std::vector<NavNodeId> expandable;
      for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
        if (active.IsVisible(id) &&
            active.ComponentSize(active.ComponentOf(id)) >= 2) {
          expandable.push_back(id);
        }
      }
      if (!expandable.empty()) {
        root = active.ComponentRoot(active.ComponentOf(
            expandable[rng.Uniform(expandable.size())]));
      }
    }

    if (root != kInvalidNavNode &&
        active.ComponentSize(active.ComponentOf(root)) >= 2) {
      // A fresh strategy on the identical active tree is the from-scratch
      // reference; it shares no state with any prior step.
      HeuristicReducedOpt scratch(&model, scratch_options);
      EdgeCut expect = reuse_dp
                           ? long_lived_reference.ChooseEdgeCut(active, root)
                           : scratch.ChooseEdgeCut(active, root);
      EdgeCut got = memoized.ChooseEdgeCut(active, root);
      ASSERT_EQ(got.cut_children, expect.cut_children)
          << "divergence at step " << step << " root " << root
          << " (reuse_dp=" << reuse_dp << ")";
      hits += memoized.last_stats().incremental_hit ? 1 : 0;
      ++expands;
      active.ApplyEdgeCut(root, got).status().CheckOK();
    }

    // Random backtrack runs (sometimes several levels) re-create earlier
    // component shapes — exactly what the memo must survive.
    if (rng.Uniform(4) == 0) {
      int pops = 1 + static_cast<int>(rng.Uniform(3));
      for (int p = 0; p < pops; ++p) {
        if (!active.Backtrack()) break;
      }
    }
  }

  EXPECT_GT(expands, 20) << "session too shallow to prove anything";
  if (!reuse_dp) {
    // The memo must actually engage on re-created shapes (reuse_dp=true
    // intentionally disables it, so only assert on the default engine).
    EXPECT_GT(hits, 0) << "no incremental hits in " << expands << " EXPANDs";
  }
}

TEST_P(IncrementalEngineProperty, MatchesFromScratchCutsAndCosts) {
  RunLockstepSession(GetParam(), /*reuse_dp=*/false);
}

TEST_P(IncrementalEngineProperty, MatchesFromScratchUnderDpReuse) {
  RunLockstepSession(GetParam(), /*reuse_dp=*/true);
}

TEST_P(IncrementalEngineProperty, SessionCostsIdenticalWithMemoOnAndOff) {
  // Whole-session oracle costs (the paper's metric) must not move when the
  // memo is enabled: run the full NavigateToTarget twice.
  RandomInstance inst(GetParam() + 31, 350, 45);
  CostModel model(inst.nav.get());

  HeuristicReducedOptOptions on;
  on.incremental = true;
  HeuristicReducedOpt with_memo(&model, on);
  NavigationMetrics a =
      NavigateToTarget(*inst.nav, inst.target(), &with_memo);

  HeuristicReducedOptOptions off;
  off.incremental = false;
  HeuristicReducedOpt without_memo(&model, off);
  NavigationMetrics b =
      NavigateToTarget(*inst.nav, inst.target(), &without_memo);

  EXPECT_EQ(a.expand_actions, b.expand_actions);
  EXPECT_EQ(a.revealed_concepts, b.revealed_concepts);
  EXPECT_EQ(a.navigation_cost(), b.navigation_cost());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEngineProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// (2) One immutable tree layout: derived structure matches oracles
// ---------------------------------------------------------------------------

class NavTreeLayoutProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NavTreeLayoutProperty, BuiltAndDecodedTreesMatchStructuralOracles) {
  RandomInstance inst(GetParam() + 70, 500, 60);
  const NavigationTree& built = *inst.nav;
  ASSERT_GT(built.size(), 20u);
  EXPECT_TRUE(MatchesStructuralOracles(built));

  // The same tree after a BNA1 round trip: FromSerializedNodes fills the
  // columns through the same finishing step as the associating constructor.
  auto decoded = QueryArtifacts::Deserialize(inst.hierarchy,
                                             inst.MakeBundle()->Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const NavigationTree& got = *decoded.ValueOrDie()->nav;
  EXPECT_TRUE(MatchesStructuralOracles(got));
  ASSERT_EQ(got.size(), built.size());
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(built.size()); ++id) {
    EXPECT_EQ(got.concept_of(id), built.concept_of(id));
    EXPECT_EQ(got.parent(id), built.parent(id));
    EXPECT_EQ(got.attached_count(id), built.attached_count(id));
    EXPECT_EQ(got.global_count(id), built.global_count(id));
    EXPECT_EQ(got.SubtreeEnd(id), built.SubtreeEnd(id));
    EXPECT_EQ(got.SubtreeAttachedTotal(id), built.SubtreeAttachedTotal(id));
    EXPECT_TRUE(got.SubtreeResults(id) == built.SubtreeResults(id)) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavTreeLayoutProperty,
                         ::testing::Values(11u, 12u, 13u));

class SoAFrozenTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoAFrozenTreeProperty, NavigationAnswersMatchMiniFixtureLazyTwin) {
  // MiniFixture builds two independent trees for the same query; a full
  // oracle session must behave identically on both.
  MiniFixture fixture;
  std::unique_ptr<NavigationTree> a = fixture.BuildNav("prothymosin");
  std::unique_ptr<NavigationTree> b = fixture.BuildNav("prothymosin");
  ASSERT_EQ(a->size(), b->size());

  CostModel model_a(a.get());
  CostModel model_b(b.get());
  HeuristicReducedOpt strat_a(&model_a);
  HeuristicReducedOpt strat_b(&model_b);
  ActiveTree active_a(a.get());
  ActiveTree active_b(b.get());

  for (int step = 0; step < 8; ++step) {
    if (active_a.ComponentSize(active_a.ComponentOf(NavigationTree::kRoot)) <
        2) {
      break;
    }
    EdgeCut cut_a = strat_a.ChooseEdgeCut(active_a, NavigationTree::kRoot);
    EdgeCut cut_b = strat_b.ChooseEdgeCut(active_b, NavigationTree::kRoot);
    ASSERT_EQ(cut_a.cut_children, cut_b.cut_children);
    auto ra = active_a.ApplyEdgeCut(NavigationTree::kRoot, cut_a);
    auto rb = active_b.ApplyEdgeCut(NavigationTree::kRoot, cut_b);
    ra.status().CheckOK();
    rb.status().CheckOK();
    EXPECT_EQ(ra.ValueOrDie(), rb.ValueOrDie());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoAFrozenTreeProperty,
                         ::testing::Values(11u, 12u, 13u));

// ---------------------------------------------------------------------------
// (3) BATCH_EXPAND: codecs, semantics, spill replay, router relay
// ---------------------------------------------------------------------------

TEST(BatchExpandProtocol, JsonAndBinaryRoundTrip) {
  Request request;
  request.op = RequestOp::kBatchExpand;
  request.token = "s42";
  request.nodes = {0, 17, 5};

  // JSON text codec.
  std::string line = SerializeRequest(request);
  Request parsed;
  std::string message;
  ASSERT_EQ(ParseRequest(line, &parsed, &message), WireError::kNone)
      << message;
  EXPECT_EQ(parsed.op, RequestOp::kBatchExpand);
  EXPECT_EQ(parsed.token, "s42");
  EXPECT_EQ(parsed.nodes, request.nodes);

  // Binary v2 codec, compared field-for-field against the JSON view.
  std::string frame = SerializeRequestBinary(request);
  BinaryFrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(frame));
  std::string body;
  ASSERT_TRUE(decoder.Next(&body));
  RequestView view;
  ASSERT_EQ(ParseRequestBinary(body, &view, &message), WireError::kNone)
      << message;
  EXPECT_EQ(view.op, RequestOp::kBatchExpand);
  EXPECT_EQ(view.token, "s42");
  EXPECT_EQ(view.nodes, request.nodes);
}

TEST(BatchExpandProtocol, RejectsEmptyAndOversizedBatches) {
  Request parsed;
  std::string message;
  EXPECT_EQ(ParseRequest(
                R"({"v": 1, "op": "BATCH_EXPAND", "token": "s1", "nodes": []})",
                &parsed, &message),
            WireError::kBadRequest);
  EXPECT_EQ(ParseRequest(
                R"({"v": 1, "op": "BATCH_EXPAND", "token": "s1"})", &parsed,
                &message),
            WireError::kBadRequest);

  std::string big = R"({"v": 1, "op": "BATCH_EXPAND", "token": "s1", "nodes": [)";
  for (size_t i = 0; i <= kMaxBatchExpandNodes; ++i) {
    if (i > 0) big += ",";
    big += std::to_string(i);
  }
  big += "]}";
  EXPECT_EQ(ParseRequest(big, &parsed, &message), WireError::kBadRequest);

  // The binary codec enforces the same cap.
  Request oversized;
  oversized.op = RequestOp::kBatchExpand;
  oversized.token = "s1";
  for (size_t i = 0; i <= kMaxBatchExpandNodes; ++i) {
    oversized.nodes.push_back(static_cast<NavNodeId>(i));
  }
  std::string frame = SerializeRequestBinary(oversized);
  BinaryFrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(frame));
  std::string body;
  ASSERT_TRUE(decoder.Next(&body));
  RequestView view;
  EXPECT_EQ(ParseRequestBinary(body, &view, &message),
            WireError::kBadRequest);
}

TEST(BatchExpandE2E, EqualsSingleExpandsAndSurvivesSpillReplay) {
  MiniFixture fixture;
  std::string dir = ::testing::TempDir() + "bionav_batch_expand_spill";
  std::filesystem::remove_all(dir);

  NavServerOptions options;
  options.threads = 2;
  options.session.spill_dir = dir;
  options.session.spill_after_ms = 60'000;  // Only explicit SpillAll fires.
  NavServer server(&fixture.mesh, fixture.eutils.get(),
                   MakeBioNavStrategyFactory(), options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NavClient& client = *connected.ValueOrDie();

  // Batched session: expand the root, then batch-expand every node the
  // root cut revealed (leaf reveals fail per-item without aborting).
  auto opened = client.Query("prothymosin");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::string token = opened.ValueOrDie().token;
  auto first = client.ExpandMany(token, {NavigationTree::kRoot});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first.ValueOrDie().expanded, 1u);
  std::vector<NavNodeId> frontier = first.ValueOrDie().revealed;
  ASSERT_FALSE(frontier.empty());

  auto batched = client.ExpandMany(token, frontier);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const NavClient::BatchExpandReply& reply = batched.ValueOrDie();
  ASSERT_EQ(reply.outcomes.size(), frontier.size());

  // Twin session: the same cuts applied one EXPAND at a time; each item's
  // outcome and reveal list must match the batch's, and the final views
  // must be byte-identical.
  auto twin = client.Query("prothymosin");
  ASSERT_TRUE(twin.ok());
  const std::string twin_token = twin.ValueOrDie().token;
  ASSERT_TRUE(client.Expand(twin_token, NavigationTree::kRoot).ok());
  std::vector<NavNodeId> combined;
  for (size_t i = 0; i < frontier.size(); ++i) {
    auto single = client.Expand(twin_token, frontier[i]);
    EXPECT_EQ(single.ok(), reply.outcomes[i].ok) << "node " << frontier[i];
    if (single.ok()) {
      EXPECT_EQ(single.ValueOrDie(), reply.outcomes[i].revealed);
      for (NavNodeId id : single.ValueOrDie()) combined.push_back(id);
    }
  }
  EXPECT_EQ(reply.revealed, combined)
      << "combined frontier is not the concatenation of per-item reveals";

  auto view_batch = client.View(token);
  auto view_twin = client.View(twin_token);
  ASSERT_TRUE(view_batch.ok());
  ASSERT_TRUE(view_twin.ok());
  EXPECT_EQ(view_batch.ValueOrDie(), view_twin.ValueOrDie());

  // Spill the batch-expanded session and touch it: the ExpandRecord log
  // written by BATCH_EXPAND must replay to a byte-identical VIEW.
  ASSERT_GE(server.session_manager().SpillAll(), 1u);
  auto restored = client.View(token);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie(), view_batch.ValueOrDie());
  EXPECT_GE(server.session_manager().stats().restored, 1);

  EXPECT_TRUE(client.CloseSession(token).ok());
  EXPECT_TRUE(client.CloseSession(twin_token).ok());
  server.Shutdown();
  std::filesystem::remove_all(dir);
}

TEST(BatchExpandE2E, RelaysThroughRouterPinnedToOwningShard) {
  // A router in front of one shard must relay BATCH_EXPAND by session
  // token exactly like EXPAND (the default pin-by-token path).
  MiniFixture fixture;
  NavServerOptions options;
  options.threads = 2;
  options.session.token_prefix = "shard0-";
  NavServer server(&fixture.mesh, fixture.eutils.get(),
                   MakeBioNavStrategyFactory(), options);
  ASSERT_TRUE(server.Start().ok());

  NavRouterOptions router_options;
  router_options.connect_timeout_ms = 500;
  NavRouter router(
      std::vector<RouterBackend>{{"127.0.0.1", server.port(), "shard0"}},
      router_options);
  ASSERT_TRUE(router.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NavClient& client = *connected.ValueOrDie();

  auto opened = client.Query("prothymosin");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::string token = opened.ValueOrDie().token;
  auto batched = client.ExpandMany(token, {NavigationTree::kRoot});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched.ValueOrDie().expanded, 1u);
  EXPECT_FALSE(batched.ValueOrDie().revealed.empty());
  EXPECT_TRUE(client.CloseSession(token).ok());

  router.Shutdown();
  server.Shutdown();
}

}  // namespace
}  // namespace bionav
