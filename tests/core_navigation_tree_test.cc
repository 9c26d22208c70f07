#include "core/navigation_tree.h"

#include <set>

#include <gtest/gtest.h>

#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;
using ::bionav::testing::ReferenceSubtreeDistinct;

TEST(NavigationTree, MiniFixtureStructure) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->result().size(), 8u);

  // Concepts with no attached result citations are embedded away; 'Genetic
  // Processes' has only background citations, so it must not appear even
  // though its descendants do.
  EXPECT_EQ(nav->NodeOfConcept(f.genetic), kInvalidNavNode);
  EXPECT_NE(nav->NodeOfConcept(f.expression), kInvalidNavNode);
  EXPECT_NE(nav->NodeOfConcept(f.apoptosis), kInvalidNavNode);
  // 'Biological Phenomena' itself has no direct citations.
  EXPECT_EQ(nav->NodeOfConcept(f.bio), kInvalidNavNode);
}

TEST(NavigationTree, MaximumEmbeddingPreservesAncestry) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // 'Gene Expression' (kept) is spliced directly under the root since its
  // hierarchy ancestor 'Genetic Processes' is empty.
  NavNodeId expr = nav->NodeOfConcept(f.expression);
  ASSERT_NE(expr, kInvalidNavNode);
  EXPECT_EQ(nav->parent(expr), NavigationTree::kRoot);
  // 'Apoptosis' hangs under 'Cell Death' which is kept.
  NavNodeId apo = nav->NodeOfConcept(f.apoptosis);
  NavNodeId death = nav->NodeOfConcept(f.death);
  ASSERT_NE(apo, kInvalidNavNode);
  ASSERT_NE(death, kInvalidNavNode);
  EXPECT_EQ(nav->parent(apo), death);
}

TEST(NavigationTree, AttachedCountsMatchAssociations) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // Citations 2, 5, 6 mention proliferation.
  NavNodeId prolif = nav->NodeOfConcept(f.proliferation);
  ASSERT_NE(prolif, kInvalidNavNode);
  EXPECT_EQ(nav->attached_count(prolif), 3);
  // Global count includes background citation 101.
  EXPECT_EQ(nav->global_count(prolif), 4);
}

TEST(NavigationTree, RootKeptEvenIfEmpty) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->concept_of(NavigationTree::kRoot), ConceptHierarchy::kRoot);
  EXPECT_EQ(nav->attached_count(NavigationTree::kRoot), 0);
}

TEST(NavigationTree, EmptyResultYieldsRootOnlyTree) {
  MiniFixture f;
  auto nav = f.BuildNav("nosuchterm");
  EXPECT_EQ(nav->size(), 1u);
  EXPECT_EQ(nav->result().size(), 0u);
}

TEST(NavigationTree, SubtreeResultsCountsDistinct) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // All 8 result citations appear somewhere in the tree.
  EXPECT_EQ(nav->SubtreeResults(NavigationTree::kRoot).Count(), 8u);
  // Cell Death subtree: citations 1 (apoptosis+death), 4 (necrosis+death),
  // 6 (apoptosis), 7 (autophagy) -> 4 distinct.
  NavNodeId death = nav->NodeOfConcept(f.death);
  EXPECT_EQ(nav->SubtreeResults(death).Count(), 4u);
}

TEST(NavigationTree, TotalAttachedWithDuplicates) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // Sum of per-citation association counts for the 8 result citations:
  // 3+3+2+2+2+2+1+2 = 17.
  EXPECT_EQ(nav->TotalAttachedWithDuplicates(), 17);
}

TEST(NavigationTree, PreOrderStorageAndSubtreeIntervals) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav->size()); ++id) {
    EXPECT_LT(nav->parent(id), id);  // Parents precede children.
  }
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav->size()); ++id) {
    NavNodeId end = nav->SubtreeEnd(id);
    EXPECT_GT(end, id);
    // All nodes in [id, end) are descendants-or-self; all outside are not.
    for (NavNodeId other = 0; other < static_cast<NavNodeId>(nav->size());
         ++other) {
      bool in_interval = other >= id && other < end;
      EXPECT_EQ(nav->IsAncestorOrSelf(id, other), in_interval);
    }
  }
}

TEST(NavigationTree, HeightAndWidthOnMini) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_GE(nav->Height(), 2);
  EXPECT_GE(nav->MaxWidth(), 2);
  EXPECT_LE(nav->MaxWidth(), static_cast<int>(nav->size()));
}

TEST(NavigationTree, NodeDepthConsistent) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->NodeDepth(NavigationTree::kRoot), 0);
  int max_depth = 0;
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav->size()); ++id) {
    max_depth = std::max(max_depth, nav->NodeDepth(id));
  }
  EXPECT_EQ(max_depth, nav->Height());
}

class NavigationTreePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(NavigationTreePropertyTest, InvariantsOnRandomInstances) {
  RandomInstance inst(GetParam(), 400, 50);
  const NavigationTree& nav = *inst.nav;

  // 1. Every node except the root has attached citations (Definition 2).
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_GT(nav.attached_count(id), 0);
  }

  // 2. Navigation parenthood = nearest kept ancestor in the hierarchy.
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    ConceptId c = nav.concept_of(id);
    ConceptId p = inst.hierarchy.parent(c);
    while (p != kInvalidConcept && nav.NodeOfConcept(p) == kInvalidNavNode) {
      p = inst.hierarchy.parent(p);
    }
    ASSERT_NE(p, kInvalidConcept);
    EXPECT_EQ(nav.parent(id), nav.NodeOfConcept(p));
  }

  // 3. Bitset counts agree with a set-based reference.
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_EQ(static_cast<int>(nav.SubtreeResults(id).Count()),
              ReferenceSubtreeDistinct(nav, id));
  }

  // 4. Every result citation is attached somewhere.
  EXPECT_EQ(nav.SubtreeResults(NavigationTree::kRoot).Count(),
            nav.result().size());

  // 5. Attached count equals per-node bitset count.
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_EQ(static_cast<size_t>(nav.attached_count(id)),
              nav.results(id).Count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavigationTreePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace bionav
