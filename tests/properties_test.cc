// Cross-module property suites over randomly generated instances: the
// visualization embedding, ranked ordering, inverted-index postings and
// generated-hierarchy identities that the per-module tests only check on
// fixed fixtures.

#include <set>

#include <gtest/gtest.h>

#include "bionav.h"
#include "test_support.h"
#include "util/rng.h"

namespace bionav {
namespace {

using ::bionav::testing::RandomInstance;

class CrossPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossPropertyTest, VisualizationIsTheVisibleEmbedding) {
  RandomInstance inst(GetParam(), 350, 45);
  const NavigationTree& nav = *inst.nav;
  CostModel model(inst.nav.get());
  ActiveTree active(inst.nav.get());
  HeuristicReducedOpt strategy(&model);
  Rng rng(GetParam() * 3 + 1);

  for (int step = 0; step < 8; ++step) {
    // Expand a random expandable visible component.
    std::vector<NavNodeId> expandable;
    for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
      if (active.IsVisible(id) &&
          active.ComponentSize(active.ComponentOf(id)) >= 2) {
        expandable.push_back(id);
      }
    }
    if (expandable.empty()) break;
    NavNodeId root = expandable[rng.Uniform(expandable.size())];
    active.ApplyEdgeCut(root, strategy.ChooseEdgeCut(active, root))
        .status()
        .CheckOK();

    ActiveTree::VisTree vis = active.Visualize();
    // 1. Vis nodes are exactly the visible nodes.
    std::set<NavNodeId> visible;
    for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
      if (active.IsVisible(id)) visible.insert(id);
    }
    ASSERT_EQ(vis.nodes.size(), visible.size());
    std::set<NavNodeId> in_vis;
    for (const ActiveTree::VisNode& vn : vis.nodes) {
      EXPECT_TRUE(visible.count(vn.node));
      in_vis.insert(vn.node);
      // 2. Counts and expandability match the component state.
      int comp = active.ComponentOf(vn.node);
      EXPECT_EQ(vn.distinct_count, active.ComponentDistinctCount(comp));
      EXPECT_EQ(vn.expandable, active.ComponentSize(comp) >= 2);
    }
    EXPECT_EQ(in_vis, visible);

    // 3. Embedding parenthood: each vis child's nearest visible proper
    // ancestor is its vis parent.
    for (size_t p = 0; p < vis.nodes.size(); ++p) {
      for (int c : vis.nodes[p].children) {
        NavNodeId child = vis.nodes[static_cast<size_t>(c)].node;
        NavNodeId ancestor = nav.parent(child);
        while (ancestor != kInvalidNavNode && !active.IsVisible(ancestor)) {
          ancestor = nav.parent(ancestor);
        }
        EXPECT_EQ(ancestor, vis.nodes[p].node);
      }
    }

    // 4. The ranked visualization is a permutation of the same nodes with
    // non-increasing sibling relevance.
    ActiveTree::VisTree ranked = VisualizeRanked(active, model);
    ASSERT_EQ(ranked.nodes.size(), vis.nodes.size());
    for (const ActiveTree::VisNode& vn : ranked.nodes) {
      EXPECT_TRUE(visible.count(vn.node));
      double prev = 1e300;
      for (int c : vn.children) {
        double rel = ComponentRelevance(
            active, model,
            active.ComponentOf(ranked.nodes[static_cast<size_t>(c)].node));
        EXPECT_LE(rel, prev + 1e-12);
        prev = rel;
      }
    }
  }
}

TEST_P(CrossPropertyTest, PostingsAreSortedDeduplicatedAndComplete) {
  RandomInstance inst(GetParam() + 100, 300, 40);
  const CitationStore& store = inst.corpus->store;
  const InvertedIndex& index = *inst.corpus->index;

  // Every citation is findable through each of its terms; postings are
  // sorted and unique.
  std::set<std::string> checked;
  for (CitationId id = 0; id < static_cast<CitationId>(store.size());
       id += 37) {  // Sampled for speed.
    for (int32_t t : store.Get(id).term_ids) {
      const std::string& term = store.TermText(t);
      const auto& postings = index.Postings(term);
      EXPECT_TRUE(std::binary_search(postings.begin(), postings.end(), id))
          << term;
      if (checked.insert(term).second) {
        EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
        EXPECT_TRUE(std::adjacent_find(postings.begin(), postings.end()) ==
                    postings.end());
      }
    }
  }
}

TEST_P(CrossPropertyTest, GeneratedHierarchyTreeNumbersRoundTrip) {
  HierarchyGeneratorOptions o;
  o.seed = GetParam() + 50;
  o.target_nodes = 2500;
  ConceptHierarchy h = GenerateMeshLikeHierarchy(o);
  // Tree numbers are unique, parse back, and locate their node.
  std::set<std::string> seen;
  h.PreOrder([&](ConceptId id) {
    std::string tn = h.tree_number(id).ToString();
    EXPECT_TRUE(seen.insert(tn).second);
    auto parsed = TreeNumber::Parse(tn);
    ASSERT_TRUE(parsed.ok()) << tn;
    EXPECT_EQ(static_cast<size_t>(h.depth(id)), parsed.ValueOrDie().Depth());
    EXPECT_EQ(h.FindByTreeNumber(tn), id);
  });
}

TEST_P(CrossPropertyTest, SessionLifecycleOverRandomCorpus) {
  RandomInstance inst(GetParam() + 200, 300, 40);
  EUtilsClient client = inst.corpus->MakeClient();
  NavigationSession session(&inst.hierarchy, &client,
                            inst.corpus->queries[0].spec.keyword,
                            MakeBioNavStrategyFactory());
  ASSERT_EQ(session.result_size(), 40u);

  std::string initial = session.Render();
  // Expand three times following the first expandable node, then fully
  // backtrack: the rendering must return to the initial state.
  int expands = 0;
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    for (NavNodeId id = 0;
         id < static_cast<NavNodeId>(session.navigation_tree().size());
         ++id) {
      if (session.active_tree().IsVisible(id) &&
          session.active_tree().ComponentSize(
              session.active_tree().ComponentOf(id)) >= 2) {
        session.Expand(id).status().CheckOK();
        ++expands;
        done = true;
        break;
      }
    }
    if (!done) break;
  }
  for (int i = 0; i < expands; ++i) {
    EXPECT_TRUE(session.Backtrack());
  }
  EXPECT_FALSE(session.Backtrack());
  EXPECT_EQ(session.Render(), initial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossPropertyTest,
                         ::testing::Range<uint64_t>(1, 8));

}  // namespace
}  // namespace bionav
