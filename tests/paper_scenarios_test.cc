// Scenario tests reproducing the concrete interactions the paper walks
// through in Sections I-II (Figs 2-5), on the hand-built mini fixture that
// mirrors the paper's "Biological Phenomena / Cell Death / Cell
// Proliferation" neighbourhood.

#include <gtest/gtest.h>

#include "bionav.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;

class PaperScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nav_ = fixture_.BuildNav("prothymosin");
    model_ = std::make_unique<CostModel>(nav_.get());
    active_ = std::make_unique<ActiveTree>(nav_.get());
  }

  NavNodeId Node(ConceptId c) const { return nav_->NodeOfConcept(c); }

  MiniFixture fixture_;
  std::unique_ptr<NavigationTree> nav_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<ActiveTree> active_;
};

TEST_F(PaperScenarioTest, Fig2SkipLevelReveal) {
  // Fig 2c: expanding "Biological Phenomena..." reveals 'Cell
  // Proliferation' directly — a descendant, NOT a child — because it has
  // the same citations as its parent 'Cell Growth Processes' and is more
  // specific. Here: cut the edge above Cell Proliferation straight from
  // the root, skipping Cell Physiology and Cell Growth Processes.
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  ActiveTree::VisTree vis = active_->Visualize();
  ASSERT_EQ(vis.nodes.size(), 2u);
  EXPECT_EQ(vis.nodes[1].concept_id, fixture_.proliferation);
  // Shown as a child of the root in the embedding although its navigation
  // parent (Cell Growth Processes) is hidden.
  EXPECT_EQ(vis.nodes[0].children, std::vector<int>{1});
  EXPECT_NE(nav_->parent(Node(fixture_.proliferation)), NavigationTree::kRoot);
}

TEST_F(PaperScenarioTest, Fig2CountShrinksAsConceptsAreRevealed) {
  // Fig 2c: 'Biological Phenomena...' drops from 217 to 166 as its
  // component shrinks. Here: the root's count drops when Cell Death's
  // subtree is cut away, but only by the citations not also attached
  // elsewhere.
  int before = active_->ComponentDistinctCount(0);
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
  int after = active_->ComponentDistinctCount(0);
  EXPECT_LT(after, before);
  EXPECT_GT(after, before - active_->ComponentDistinctCount(
                                active_->ComponentOf(Node(fixture_.death))));
}

TEST_F(PaperScenarioTest, Fig5UpperSubtreeExpansionReparentsReveals) {
  // Fig 5: after Cell Proliferation was revealed from deep inside, a
  // second EXPAND on the *upper* subtree reveals Cell Growth Processes —
  // which then becomes Cell Proliferation's parent in the visualization.
  EdgeCut first;
  first.cut_children = {Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, first).status().CheckOK();

  EdgeCut second;
  second.cut_children = {Node(fixture_.growth)};
  ASSERT_TRUE(
      active_->ValidateEdgeCut(NavigationTree::kRoot, second).ok());
  active_->ApplyEdgeCut(NavigationTree::kRoot, second).status().CheckOK();

  ActiveTree::VisTree vis = active_->Visualize();
  // Visible: root, growth, proliferation.
  ASSERT_EQ(vis.nodes.size(), 3u);
  int growth_vis = -1, prolif_vis = -1;
  for (size_t i = 0; i < vis.nodes.size(); ++i) {
    if (vis.nodes[i].concept_id == fixture_.growth) {
      growth_vis = static_cast<int>(i);
    }
    if (vis.nodes[i].concept_id == fixture_.proliferation) {
      prolif_vis = static_cast<int>(i);
    }
  }
  ASSERT_GE(growth_vis, 0);
  ASSERT_GE(prolif_vis, 0);
  EXPECT_EQ(vis.nodes[static_cast<size_t>(growth_vis)].children,
            std::vector<int>{prolif_vis});
  // Growth's own component excludes the previously-cut proliferation
  // subtree: only Cell Division-free citations... growth alone has {2}.
  EXPECT_EQ(active_->ComponentDistinctCount(
                active_->ComponentOf(Node(fixture_.growth))),
            1);
}

TEST_F(PaperScenarioTest, Fig3EdgeCutCreatesDescribedComponents) {
  // Fig 3: the EdgeCut {(Cell Physiology, Cell Death), (Cell Growth
  // Processes, Cell Proliferation)} creates two lower components and an
  // upper component containing Cell Physiology and Cell Growth Processes.
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  int death_comp = active_->ComponentOf(Node(fixture_.death));
  int prolif_comp = active_->ComponentOf(Node(fixture_.proliferation));
  EXPECT_NE(death_comp, prolif_comp);
  // Lower components hold their full subtrees.
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.apoptosis)), death_comp);
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.necrosis)), death_comp);
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.autophagy)), death_comp);
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.division)), prolif_comp);
  // Upper retains the skipped interior nodes.
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.physio)), 0);
  EXPECT_EQ(active_->ComponentOf(Node(fixture_.growth)), 0);
}

TEST_F(PaperScenarioTest, Fig4ActiveTreeStateMatchesISets) {
  // Fig 4: before the EdgeCut the root's I-set holds every node; after,
  // the I-sets partition into upper and lower exactly as drawn.
  EXPECT_EQ(active_->ComponentMembers(0).size(), nav_->size());

  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death), Node(fixture_.proliferation)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();

  std::vector<NavNodeId> death_members =
      active_->ComponentMembers(active_->ComponentOf(Node(fixture_.death)));
  EXPECT_EQ(death_members.size(), 4u);  // death, autophagy, apoptosis, necrosis.
  std::vector<NavNodeId> prolif_members = active_->ComponentMembers(
      active_->ComponentOf(Node(fixture_.proliferation)));
  EXPECT_EQ(prolif_members.size(), 2u);  // proliferation, division.
  EXPECT_EQ(active_->ComponentMembers(0).size(),
            nav_->size() - 4u - 2u);
}

TEST_F(PaperScenarioTest, SectionIIDuplicateAwareCounts) {
  // Section I: "Among the total 185 citations attached to the four
  // indicated concept nodes, only 38 of them are duplicates" — counts are
  // duplicate-aware. Mini equivalent: apoptosis{1,6} + proliferation
  // {2,5,6} hold 5 attachments but only 4 distinct citations.
  DynamicBitset acc = nav_->result().MakeBitset();
  acc.UnionWith(nav_->results(Node(fixture_.apoptosis)));
  acc.UnionWith(nav_->results(Node(fixture_.proliferation)));
  int attachments = nav_->attached_count(Node(fixture_.apoptosis)) +
                    nav_->attached_count(Node(fixture_.proliferation));
  EXPECT_EQ(attachments, 5);
  EXPECT_EQ(acc.Count(), 4u);
}

TEST_F(PaperScenarioTest, TopDownModelActionsAllAvailable) {
  // Fig 6's TOPDOWN loop on the engine level: EXPAND, SHOWRESULTS (via
  // component results), IGNORE (just don't touch a component), BACKTRACK.
  EdgeCut cut;
  cut.cut_children = {Node(fixture_.death)};
  active_->ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
  // SHOWRESULTS on the revealed component.
  EXPECT_EQ(active_->ComponentResults(
                       active_->ComponentOf(Node(fixture_.death)))
                .Count(),
            4u);
  // IGNORE: nothing to do — the component simply stays collapsed.
  // BACKTRACK:
  EXPECT_TRUE(active_->Backtrack());
  EXPECT_EQ(active_->ComponentMembers(0).size(), nav_->size());
}

}  // namespace
}  // namespace bionav
