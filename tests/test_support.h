#ifndef BIONAV_TESTS_TEST_SUPPORT_H_
#define BIONAV_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bionav.h"

namespace bionav::testing {

/// A small hand-built end-to-end fixture: hierarchy + corpus + query.
/// Mirrors the paper's Fig 3 neighbourhood ("Biological Phenomena...",
/// "Cell Death", "Cell Proliferation", ...) so tests can assert against
/// concrete, human-checkable structures.
struct MiniFixture {
  ConceptHierarchy mesh;
  CitationStore store;
  AssociationTable assoc{0};
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<EUtilsClient> eutils;

  // Concept handles.
  ConceptId bio, physio, death, autophagy, apoptosis, necrosis;
  ConceptId growth, proliferation, division;
  ConceptId genetic, expression, transcription;

  MiniFixture();

  /// The "prothymosin" query result of this fixture.
  std::vector<CitationId> Search(const std::string& q) const {
    return index->Search(q);
  }

  /// Builds the navigation tree for a query.
  std::unique_ptr<NavigationTree> BuildNav(const std::string& q) const;
};

/// Builds a random navigation-tree-like instance for property tests:
/// a random hierarchy of `hierarchy_nodes` concepts and a corpus with one
/// query of `result_size` citations. Deterministic in `seed`.
struct RandomInstance {
  ConceptHierarchy hierarchy;
  std::unique_ptr<SyntheticCorpus> corpus;
  std::shared_ptr<const ResultSet> result;
  std::unique_ptr<NavigationTree> nav;

  RandomInstance(uint64_t seed, int hierarchy_nodes, int result_size,
                 int target_depth = 3);

  ConceptId target() const { return corpus->queries[0].target; }

  /// Artifact bundle of the instance's query — an independently built tree
  /// of the same shape as `nav`, with its cost model — for the BNA1 codec.
  std::shared_ptr<const QueryArtifacts> MakeBundle() const;
};

/// Brute-force reference: distinct citations attached in the navigation
/// subtree of `id`, computed without bitsets from parent() links alone.
int ReferenceSubtreeDistinct(const NavigationTree& nav, NavNodeId id);

/// Children of every node rebuilt from parent() links alone, each list in
/// ascending id order — an oracle independent of the tree's pre-order
/// arithmetic.
std::vector<std::vector<NavNodeId>> ChildrenByParent(const NavigationTree& nav);

/// Checks the tree's derived structure against oracles built from parent()
/// and results() alone: ForEachChild and first_child/next_sibling follow
/// ChildrenByParent; [id, SubtreeEnd(id)) holds exactly the descendants of
/// id; SubtreeResults(id) is the union of results(u) over that range and
/// SubtreeDistinct(id) its count.
::testing::AssertionResult MatchesStructuralOracles(const NavigationTree& nav);

}  // namespace bionav::testing

#endif  // BIONAV_TESTS_TEST_SUPPORT_H_
