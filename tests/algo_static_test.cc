#include "algo/static_navigation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "algo/exhaustive.h"
#include "algo/exhaustive_strategy.h"
#include "algo/greedy_edgecut.h"
#include "sim/navigator.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::ChildrenByParent;
using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;

TEST(StaticNavigation, RevealsAllChildren) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  ActiveTree active(nav.get());
  StaticNavigationStrategy strategy;

  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  std::vector<NavNodeId> expected =
      ChildrenByParent(*nav)[NavigationTree::kRoot];
  EXPECT_EQ(cut.cut_children, expected);
  EXPECT_TRUE(active.ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
}

TEST(StaticNavigation, AfterExpandUpperBecomesSingleton) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  ActiveTree active(nav.get());
  StaticNavigationStrategy strategy;
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  active.ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
  EXPECT_EQ(active.ComponentSize(active.ComponentOf(NavigationTree::kRoot)),
            1u);
}

TEST(StaticNavigation, DrillDownMatchesTreeStructure) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  ActiveTree active(nav.get());
  StaticNavigationStrategy strategy;
  active.ApplyEdgeCut(NavigationTree::kRoot,
                      strategy.ChooseEdgeCut(active, NavigationTree::kRoot))
      .status()
      .CheckOK();
  NavNodeId physio = nav->NodeOfConcept(f.physio);
  ASSERT_TRUE(active.IsVisible(physio));
  EdgeCut cut = strategy.ChooseEdgeCut(active, physio);
  EXPECT_EQ(cut.cut_children,
            ChildrenByParent(*nav)[static_cast<size_t>(physio)]);
}

TEST(RankedChildren, FirstPageIsTopKBySubtreeCount) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  ActiveTree active(nav.get());
  RankedChildrenStrategy strategy(1);

  // Root children: Cell Physiology (subtree 6 distinct), Gene Expression
  // (subtree 3 distinct). Page size 1 -> physio only.
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut.cut_children[0], nav->NodeOfConcept(f.physio));
}

TEST(RankedChildren, MoreButtonPagesThroughRemaining) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  ActiveTree active(nav.get());
  RankedChildrenStrategy strategy(1);

  EdgeCut first = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  active.ApplyEdgeCut(NavigationTree::kRoot, first).status().CheckOK();
  // Second click on the root = the "more" button: next-ranked child.
  EdgeCut second = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.cut_children[0], nav->NodeOfConcept(f.expression));
  active.ApplyEdgeCut(NavigationTree::kRoot, second).status().CheckOK();
  // All children paged out: the root component is now a singleton.
  EXPECT_EQ(active.ComponentSize(active.ComponentOf(NavigationTree::kRoot)),
            1u);
}

TEST(RankedChildren, PageSizeCapsRevealCount) {
  RandomInstance inst(21, 400, 50);
  ActiveTree active(inst.nav.get());
  RankedChildrenStrategy strategy(5);
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  EXPECT_LE(cut.size(), 5u);
  EXPECT_TRUE(active.ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
}

TEST(RankedChildren, NameIncludesPageSize) {
  RankedChildrenStrategy strategy(7);
  EXPECT_EQ(strategy.name(), "Ranked-Top7+More");
}

TEST(GreedyEdgeCut, ProducesValidCut) {
  RandomInstance inst(22, 400, 50);
  CostModel cost(inst.nav.get());
  ActiveTree active(inst.nav.get());
  GreedyEdgeCutStrategy strategy(&cost);
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  EXPECT_FALSE(cut.empty());
  EXPECT_TRUE(active.ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
}

TEST(GreedyEdgeCut, NeverWorseThanStaticOneStep) {
  // The greedy search starts from the all-children (static) cut and only
  // applies improving moves, so its myopic objective is <= static's. We
  // verify behaviourally: it produces a cut no larger than all-children
  // unless descending reduced cost.
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  CostModel cost(nav.get());
  ActiveTree active(nav.get());
  GreedyEdgeCutStrategy strategy(&cost);
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  EXPECT_TRUE(active.ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
}

TEST(ExhaustiveReducedStrategy, ProducesValidCut) {
  RandomInstance inst(41, 400, 50);
  CostModel cost(inst.nav.get());
  ActiveTree active(inst.nav.get());
  ExhaustiveReducedStrategy strategy(&cost);
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
  EXPECT_FALSE(cut.empty());
  EXPECT_TRUE(active.ValidateEdgeCut(NavigationTree::kRoot, cut).ok());
  EXPECT_LE(strategy.last_stats().reduced_tree_size, 10);
}

TEST(ExhaustiveReducedStrategy, OracleNavigationTerminates) {
  RandomInstance inst(42, 400, 50);
  CostModel cost(inst.nav.get());
  ExhaustiveReducedStrategy strategy(&cost);
  NavigationMetrics m =
      NavigateToTarget(*inst.nav, inst.target(), &strategy);
  EXPECT_GT(m.expand_actions, 0);
  EXPECT_LE(m.expand_actions, static_cast<int>(inst.nav->size()));
}

TEST(ExhaustiveReducedStrategy, MatchesBruteForceObjectiveOnSmallComponents) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  CostModel cost(nav.get());
  ActiveTree active(nav.get());
  ExhaustiveReducedStrategy strategy(&cost, kMaxSmallTreeNodes);
  EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);

  // Re-evaluate against the brute-force optimum on the literal tree.
  SmallTree literal = SmallTreeFromComponent(active, cost, 0);
  ExhaustiveOptResult opt = OptimalExhaustiveCut(literal);
  std::vector<int> got;
  for (NavNodeId c : cut.cut_children) {
    for (int s = 0; s < literal.size(); ++s) {
      if (literal.node(s).origin == c) got.push_back(s);
    }
  }
  std::sort(got.begin(), got.end());
  EXPECT_DOUBLE_EQ(TopDownExhaustiveCost(literal, got), opt.cost);
}

}  // namespace
}  // namespace bionav
