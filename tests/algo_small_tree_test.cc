#include "algo/small_tree.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;

SmallTree MakeChain(int n) {
  std::vector<SmallTree::Node> nodes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& node = nodes[static_cast<size_t>(i)];
    node.parent = i - 1;
    node.results = DynamicBitset(8);
    node.results.Set(static_cast<size_t>(i % 8));
    node.distinct = 1;
    node.explore_weight = 1;
    node.origin = i;
  }
  return SmallTree(std::move(nodes));
}

TEST(SmallTree, ChildrenRebuiltFromParents) {
  SmallTree t = MakeChain(4);
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.node(0).children, (std::vector<int>{1}));
  EXPECT_EQ(t.node(3).children.size(), 0u);
}

TEST(SmallTree, SubtreeMasks) {
  // Star: 0 -> {1, 2, 3}.
  std::vector<SmallTree::Node> nodes(4);
  for (int i = 0; i < 4; ++i) {
    nodes[static_cast<size_t>(i)].parent = i == 0 ? -1 : 0;
    nodes[static_cast<size_t>(i)].results = DynamicBitset(4);
    nodes[static_cast<size_t>(i)].origin = i;
  }
  SmallTree t(std::move(nodes));
  EXPECT_EQ(t.SubtreeMask(0), 0b1111u);
  EXPECT_EQ(t.SubtreeMask(1), 0b0010u);
  EXPECT_EQ(t.SubtreeMask(3), 0b1000u);
  EXPECT_EQ(t.FullMask(), 0b1111u);
}

TEST(SmallTree, ChainSubtreeMasks) {
  SmallTree t = MakeChain(4);
  EXPECT_EQ(t.SubtreeMask(0), 0b1111u);
  EXPECT_EQ(t.SubtreeMask(1), 0b1110u);
  EXPECT_EQ(t.SubtreeMask(2), 0b1100u);
  EXPECT_EQ(t.SubtreeMask(3), 0b1000u);
}

TEST(SmallTree, MaskHelpers) {
  EXPECT_EQ(SmallTree::MaskRoot(0b0110u), 1);
  EXPECT_EQ(SmallTree::MaskRoot(0b1000u), 3);
  EXPECT_EQ(SmallTree::MaskSize(0b0110u), 2);
  EXPECT_EQ(SmallTree::MaskSize(0b1u), 1);
}

TEST(SmallTreeDeath, RejectsNonPreOrder) {
  std::vector<SmallTree::Node> nodes(2);
  nodes[0].parent = -1;
  nodes[1].parent = 5;  // Forward reference.
  EXPECT_DEATH(SmallTree{std::move(nodes)}, "Check failed");
}

TEST(SmallTreeDeath, RejectsOversize) {
  std::vector<SmallTree::Node> nodes(
      static_cast<size_t>(kMaxSmallTreeNodes) + 1);
  nodes[0].parent = -1;
  for (size_t i = 1; i < nodes.size(); ++i) {
    nodes[i].parent = 0;
  }
  EXPECT_DEATH(SmallTree{std::move(nodes)}, "Check failed");
}

TEST(SmallTreeFromComponent, MirrorsComponentStructure) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  CostModel cost(nav.get());
  ActiveTree active(nav.get());

  SmallTree t = SmallTreeFromComponent(active, cost, 0);
  ASSERT_EQ(t.size(), static_cast<int>(nav->size()));
  // Node 0 is the component root with parent -1.
  EXPECT_EQ(t.node(0).parent, -1);
  EXPECT_EQ(t.node(0).origin, NavigationTree::kRoot);
  for (int i = 0; i < t.size(); ++i) {
    NavNodeId origin = t.node(i).origin;
    EXPECT_EQ(t.node(i).distinct, nav->attached_count(origin));
    EXPECT_DOUBLE_EQ(t.node(i).explore_weight,
                     cost.NodeExploreWeight(origin));
    if (i > 0) {
      EXPECT_EQ(t.node(t.node(i).parent).origin, nav->parent(origin));
    }
  }
}

TEST(SmallTreeFromComponent, RestrictsToComponentAfterCut) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  CostModel cost(nav.get());
  ActiveTree active(nav.get());

  NavNodeId death = nav->NodeOfConcept(f.death);
  EdgeCut cut;
  cut.cut_children = {death};
  active.ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  int death_comp = active.ComponentOf(death);
  SmallTree lower = SmallTreeFromComponent(active, cost, death_comp);
  EXPECT_EQ(lower.size(), 4);  // death, autophagy, apoptosis, necrosis.
  EXPECT_EQ(lower.node(0).origin, death);

  SmallTree upper = SmallTreeFromComponent(active, cost, 0);
  EXPECT_EQ(upper.size(),
            static_cast<int>(nav->size()) - 4);
  for (int i = 0; i < upper.size(); ++i) {
    EXPECT_NE(upper.node(i).origin, death);
  }
}

}  // namespace
}  // namespace bionav
