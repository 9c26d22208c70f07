#include "core/navigation_tree.h"

#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MatchesEmbedding;
using ::bionav::testing::MatchesStructuralOracles;
using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;
using ::bionav::testing::ReferenceMaximumEmbedding;
using ::bionav::testing::ReferenceSubtreeDistinct;

/// The paper-scale workload: the 48k-concept hierarchy and the ten Table-I
/// queries.
const Workload& PaperWorkload() {
  static const Workload* workload = new Workload(WorkloadOptions());
  return *workload;
}

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

TEST_P(NavigationTreePropertyTest, MatchesWholeHierarchySweep) {
  RandomInstance inst(GetParam(), 400, 50);
  EXPECT_TRUE(MatchesEmbedding(
      *inst.nav, ReferenceMaximumEmbedding(inst.hierarchy,
                                           inst.corpus->associations,
                                           *inst.result)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavigationTreePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(NavigationTree, TableIQueriesMatchWholeHierarchySweep) {
  const Workload& w = PaperWorkload();
  ASSERT_EQ(w.num_queries(), 10u);
  for (size_t i = 0; i < w.num_queries(); ++i) {
    SCOPED_TRACE(w.query(i).spec.name);
    auto nav = w.BuildNavigationTree(i);
    const std::vector<SerializedNavNode> want = ReferenceMaximumEmbedding(
        w.hierarchy(), w.corpus().associations, nav->result());
    EXPECT_TRUE(MatchesEmbedding(*nav, want));
    EXPECT_TRUE(MatchesStructuralOracles(*nav));
    // A tree decoded from the records holds the same columns.
    auto decoded = NavigationTree::FromSerializedNodes(
        w.hierarchy(), nav->result_ptr(), nav->ToSerializedNodes());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(MatchesEmbedding(*decoded.ValueOrDie(), want));
    EXPECT_TRUE(MatchesStructuralOracles(*decoded.ValueOrDie()));
  }
}

TEST(NavigationTree, FootprintIndependentOfHierarchySize) {
  // One citation of a Table-I query on the 48k-concept hierarchy...
  const Workload& w = PaperWorkload();
  const ConceptHierarchy& mesh = w.hierarchy();
  ASSERT_EQ(mesh.size(), 48000u);
  const CitationId citation = w.query(0).result.front();
  const std::vector<ConceptId>& concepts =
      w.corpus().associations.ConceptsOf(citation);
  ASSERT_FALSE(concepts.empty());
  NavigationTree big(mesh, w.corpus().associations,
                     std::make_shared<const ResultSet>(
                         std::vector<CitationId>{citation}));

  // ...and on a 1k-node hierarchy holding a copy of the same concepts with
  // their ancestor paths, padded with unrelated concepts.
  ConceptHierarchy small;
  std::unordered_map<ConceptId, ConceptId> copy_of = {
      {ConceptHierarchy::kRoot, ConceptHierarchy::kRoot}};
  for (ConceptId c : concepts) {
    for (ConceptId a : mesh.PathFromRoot(c)) {
      if (copy_of.count(a) == 0) {
        copy_of[a] = small.AddNode(copy_of.at(mesh.parent(a)), mesh.label(a));
      }
    }
  }
  while (small.size() < 1000) {
    small.AddNode(ConceptHierarchy::kRoot,
                  "filler " + std::to_string(small.size()));
  }
  small.Freeze();
  AssociationTable associations(small.size());
  for (ConceptId c : concepts) {
    associations.Associate(0, copy_of.at(c), AssociationKind::kAnnotated);
  }
  NavigationTree tiny(small, associations,
                      std::make_shared<const ResultSet>(
                          std::vector<CitationId>{0}));

  ASSERT_EQ(tiny.size(), big.size());
  EXPECT_EQ(tiny.MemoryFootprint(), big.MemoryFootprint());
}

}  // namespace
}  // namespace bionav
