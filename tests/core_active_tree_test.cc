#include "core/active_tree.h"

#include <set>

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/rng.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;

class ActiveTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nav_ = fixture_.BuildNav("prothymosin");
    active_ = std::make_unique<ActiveTree>(nav_.get());
  }

  NavNodeId Node(ConceptId c) const {
    NavNodeId id = nav_->NodeOfConcept(c);
    EXPECT_NE(id, kInvalidNavNode);
    return id;
  }

  MiniFixture fixture_;
  std::unique_ptr<NavigationTree> nav_;
  std::unique_ptr<ActiveTree> active_;
};

TEST_F(ActiveTreeTest, InitialStateIsOneComponent) {
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav_->size()); ++id) {
    EXPECT_EQ(active_->ComponentOf(id), 0);
  }
  EXPECT_EQ(active_->ComponentRoot(0), NavigationTree::kRoot);
  EXPECT_TRUE(active_->IsVisible(NavigationTree::kRoot));
  EXPECT_EQ(active_->ComponentSize(0), nav_->size());
  EXPECT_EQ(active_->ComponentDistinctCount(0), 8);
  // Only the root is visible.
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav_->size()); ++id) {
    EXPECT_FALSE(active_->IsVisible(id));
  }
}

TEST_F(ActiveTreeTest, ApplyEdgeCutCreatesComponents) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.proliferation)};
  auto r = active_->ApplyEdgeCut(NavigationTree::kRoot, cut);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), cut.cut_children);

  // The cut roots are now visible; their component subtrees own their
  // descendants.
  EXPECT_TRUE(active_->IsVisible(Node(fixture_.death)));
  EXPECT_TRUE(active_->IsVisible(Node(fixture_.proliferation)));
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.apoptosis)),
            active_->ComponentOf(Node(fixture_.death)));
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.division)),
            active_->ComponentOf(Node(fixture_.proliferation)));
  // 'Cell Physiology' stays in the upper component.
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.physio)), 0);
}

TEST_F(ActiveTreeTest, DistinctCountsAfterCut) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  int death_comp = active_->ComponentOf(Node(fixture_.death));
  // Cell Death subtree holds citations 1, 4, 6, 7.
  EXPECT_EQ(active_->ComponentDistinctCount(death_comp), 4);
  // The upper component loses nothing it does not own exclusively:
  // citations 1 and 4 are also attached to physio/death? Citation 1 is on
  // physio too, so it remains visible in the upper as well.
  EXPECT_EQ(active_->ComponentDistinctCount(0), 6);
  EXPECT_EQ(active_->ComponentSize(0) +
                static_cast<size_t>(active_->ComponentSize(death_comp)),
            nav_->size());
}

TEST_F(ActiveTreeTest, ValidateRejectsEmptyCut) {
  EdgeCut cut;
  Status s = active_->ValidateEdgeCut(NavigationTree::kRoot, cut);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ActiveTreeTest, ValidateRejectsNonRootTarget) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.apoptosis)};
  Status s = active_->ValidateEdgeCut(Node(fixture_.death), cut);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ActiveTreeTest, ValidateRejectsAncestorPairs) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.apoptosis)};
  Status s = active_->ValidateEdgeCut(NavigationTree::kRoot, cut);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("root-to-leaf"), std::string::npos);
}

TEST_F(ActiveTreeTest, ValidateRejectsCutOutsideComponent) {
  EdgeCut first;
  first.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, first).status().CheckOK();

  // Apoptosis now lives in the death component, not the root's.
  EdgeCut second;
  second.cut_children = {Node(fixture_.apoptosis)};
  Status s = active_->ValidateEdgeCut(NavigationTree::kRoot, second);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ActiveTreeTest, ValidateRejectsRootAsCutChild) {
  EdgeCut cut;
  cut.cut_children = {NavigationTree::kRoot};
  EXPECT_FALSE(active_->ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
}

TEST_F(ActiveTreeTest, ExpandLowerComponentRecursively) {
  EdgeCut first;
  first.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, first).status().CheckOK();

  EdgeCut second;
  second.cut_children = {Node(fixture_.apoptosis)};
  auto r = active_->ApplyEdgeCut(Node(fixture_.death), second);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(active_->IsVisible(Node(fixture_.apoptosis)));
  // Death component shrank: citations 4 (necrosis), 7 (autophagy), 1
  // (death itself) remain -> distinct 3.
  EXPECT_EQ(active_->ComponentDistinctCount(
                active_->ComponentOf(Node(fixture_.death))),
            3);
}

TEST_F(ActiveTreeTest, BacktrackRestoresPreviousState) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
  EXPECT_EQ(active_->HistorySize(), 1u);

  ASSERT_TRUE(active_->Backtrack());
  EXPECT_EQ(active_->HistorySize(), 0u);
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav_->size()); ++id) {
    EXPECT_EQ(active_->ComponentOf(id), 0);
  }
  EXPECT_EQ(active_->ComponentDistinctCount(0), 8);
  EXPECT_EQ(active_->ComponentSize(0), nav_->size());
  EXPECT_FALSE(active_->Backtrack());  // Nothing left to undo.
}

TEST_F(ActiveTreeTest, BacktrackIsLifo) {
  EdgeCut first;
  first.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, first).status().CheckOK();
  EdgeCut second;
  second.cut_children = {Node(fixture_.apoptosis)};
  active_->ApplyEdgeCut(Node(fixture_.death), second).status().CheckOK();

  ASSERT_TRUE(active_->Backtrack());  // Undo apoptosis cut.
  EXPECT_TRUE(active_->IsVisible(Node(fixture_.death)));
  EXPECT_FALSE(active_->IsVisible(Node(fixture_.apoptosis)));
  ASSERT_TRUE(active_->Backtrack());  // Undo death cut.
  EXPECT_FALSE(active_->IsVisible(Node(fixture_.death)));
}

TEST_F(ActiveTreeTest, VisualizationShowsVisibleEmbedding) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  ActiveTree::VisTree vis = active_->Visualize();
  ASSERT_EQ(vis.nodes.size(), 3u);
  EXPECT_EQ(vis.nodes[0].node, NavigationTree::kRoot);
  // Both cut roots are children of the (visible) root in the embedding,
  // even though neither is a navigation-tree child of it.
  EXPECT_EQ(vis.nodes[0].children.size(), 2u);
  EXPECT_TRUE(vis.nodes[1].expandable);  // Death has hidden descendants.
  EXPECT_EQ(vis.nodes[1].distinct_count, 4);
}

TEST_F(ActiveTreeTest, RenderAsciiShowsLabelsAndCounts) {
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
  std::string text = active_->RenderAscii();
  EXPECT_NE(text.find("Cell Death (4) >>>"), std::string::npos);
  EXPECT_NE(text.find("MeSH (6) >>>"), std::string::npos);
}

class ActiveTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ActiveTreePropertyTest, RandomCutsAndBacktracksPreserveInvariants) {
  RandomInstance inst(GetParam(), 300, 40);
  ActiveTree active(inst.nav.get());
  Rng rng(GetParam() * 7 + 1);
  const NavigationTree& nav = *inst.nav;

  auto check_invariants = [&]() {
    // Component roots are minimal members; membership is contiguous within
    // subtree intervals; distinct counts match re-aggregation.
    size_t total_members = 0;
    std::set<int> comps;
    for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
      comps.insert(active.ComponentOf(id));
    }
    for (int comp : comps) {
      std::vector<NavNodeId> members = active.ComponentMembers(comp);
      total_members += members.size();
      EXPECT_EQ(members.size(), active.ComponentSize(comp));
      EXPECT_EQ(members.front(), active.ComponentRoot(comp));
      DynamicBitset acc = nav.result().MakeBitset();
      for (NavNodeId m : members) {
        acc.UnionWith(nav.results(m));
        // Up-closure: parent of a non-root member is a member.
        if (m != active.ComponentRoot(comp)) {
          EXPECT_EQ(active.ComponentOf(nav.parent(m)), comp);
        }
      }
      EXPECT_EQ(static_cast<int>(acc.Count()),
                active.ComponentDistinctCount(comp));
    }
    EXPECT_EQ(total_members, nav.size());
  };

  int applied = 0;
  for (int step = 0; step < 60; ++step) {
    if (active.HistorySize() > 0 && rng.Bernoulli(0.3)) {
      ASSERT_TRUE(active.Backtrack());
      --applied;
    } else {
      // Pick a random expandable visible component and cut 1-3 random
      // non-root members (retry until antichain-valid).
      std::vector<NavNodeId> roots;
      for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
        if (active.IsVisible(id) &&
            active.ComponentSize(active.ComponentOf(id)) >= 2) {
          roots.push_back(id);
        }
      }
      if (roots.empty()) break;
      NavNodeId root = roots[rng.Uniform(roots.size())];
      std::vector<NavNodeId> members =
          active.ComponentMembers(active.ComponentOf(root));
      EdgeCut cut;
      size_t want = 1 + rng.Uniform(3);
      for (size_t t = 0; t < 20 && cut.size() < want; ++t) {
        NavNodeId cand = members[1 + rng.Uniform(members.size() - 1)];
        bool ok = true;
        for (NavNodeId existing : cut.cut_children) {
          if (nav.IsAncestorOrSelf(existing, cand) ||
              nav.IsAncestorOrSelf(cand, existing)) {
            ok = false;
            break;
          }
        }
        if (ok) cut.cut_children.push_back(cand);
      }
      auto r = active.ApplyEdgeCut(root, cut);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ++applied;
    }
    if (step % 10 == 0) check_invariants();
  }
  check_invariants();

  // Unwind everything: full backtrack returns to the initial state.
  while (active.Backtrack()) {
  }
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_EQ(active.ComponentOf(id), 0);
  }
  EXPECT_EQ(active.ComponentSize(0), nav.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveTreePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace bionav
