#include "test_support.h"

#include <algorithm>
#include <set>

namespace bionav::testing {

MiniFixture::MiniFixture() {
  bio = mesh.AddNode(ConceptHierarchy::kRoot, "Biological Phenomena");
  physio = mesh.AddNode(bio, "Cell Physiology");
  death = mesh.AddNode(physio, "Cell Death");
  autophagy = mesh.AddNode(death, "Autophagy");
  apoptosis = mesh.AddNode(death, "Apoptosis");
  necrosis = mesh.AddNode(death, "Necrosis");
  growth = mesh.AddNode(physio, "Cell Growth Processes");
  proliferation = mesh.AddNode(growth, "Cell Proliferation");
  division = mesh.AddNode(proliferation, "Cell Division");
  genetic = mesh.AddNode(ConceptHierarchy::kRoot, "Genetic Processes");
  expression = mesh.AddNode(genetic, "Gene Expression");
  transcription = mesh.AddNode(expression, "Transcription, Genetic");
  mesh.Freeze();

  assoc = AssociationTable(mesh.size());
  auto add = [&](uint64_t pmid, const std::vector<std::string>& terms,
                 const std::vector<ConceptId>& concepts) {
    Citation c;
    c.pmid = pmid;
    c.title = "citation " + std::to_string(pmid);
    c.year = 2000 + static_cast<int>(pmid % 9);
    for (const auto& t : terms) c.term_ids.push_back(store.InternTerm(t));
    CitationId id = store.Add(std::move(c));
    for (ConceptId k : concepts) {
      assoc.Associate(id, k, AssociationKind::kAnnotated);
    }
    return id;
  };

  // Eight "prothymosin" citations spanning the two research lines, with
  // deliberate duplicates across concepts, plus background citations that
  // give |LT| > |L| for some concepts.
  add(1, {"prothymosin", "apoptosis"}, {apoptosis, death, physio});
  add(2, {"prothymosin"}, {proliferation, division, growth});
  add(3, {"prothymosin"}, {transcription, expression});
  add(4, {"prothymosin", "necrosis"}, {necrosis, death});
  add(5, {"prothymosin"}, {proliferation, transcription});
  add(6, {"prothymosin"}, {apoptosis, proliferation});
  add(7, {"prothymosin"}, {autophagy});
  add(8, {"prothymosin"}, {expression, physio});
  // Background (not matching the query).
  add(100, {"cardiology"}, {physio, death});
  add(101, {"cardiology"}, {proliferation});
  add(102, {"neurology"}, {transcription, expression, genetic});

  index = std::make_unique<InvertedIndex>(store);
  eutils = std::make_unique<EUtilsClient>(&store, index.get(), &assoc);
}

std::unique_ptr<NavigationTree> MiniFixture::BuildNav(
    const std::string& q) const {
  auto result = std::make_shared<const ResultSet>(index->Search(q));
  return std::make_unique<NavigationTree>(mesh, assoc, result);
}

RandomInstance::RandomInstance(uint64_t seed, int hierarchy_nodes,
                               int result_size, int target_depth) {
  HierarchyGeneratorOptions hopts;
  hopts.seed = seed;
  hopts.target_nodes = hierarchy_nodes;
  hopts.num_categories = hierarchy_nodes >= 200 ? 8 : 3;
  hopts.top_branching = 6;
  hierarchy = GenerateMeshLikeHierarchy(hopts);

  QuerySpec spec;
  spec.name = "rand";
  spec.keyword = "randquery";
  spec.result_size = result_size;
  spec.target_depth = target_depth;
  spec.num_themes = 3;
  spec.random_annotations_mean = 2.0;
  spec.pool_size_factor = 4.0;
  spec.field_background_factor = 1.5;

  CorpusGeneratorOptions copts;
  copts.seed = seed + 17;
  copts.background_citations = std::max(200, hierarchy_nodes / 4);
  corpus = GenerateCorpus(hierarchy, {spec}, copts);

  result = std::make_shared<const ResultSet>(
      corpus->index->Search(spec.keyword));
  nav = std::make_unique<NavigationTree>(hierarchy, corpus->associations,
                                         result);
}

std::shared_ptr<const QueryArtifacts> RandomInstance::MakeBundle() const {
  auto bundle = std::make_shared<QueryArtifacts>();
  bundle->key = corpus->queries[0].spec.keyword;
  bundle->result = result;
  auto tree =
      std::make_shared<NavigationTree>(hierarchy, corpus->associations, result);
  bundle->cost_model = std::make_shared<const CostModel>(tree.get());
  bundle->nav = std::move(tree);
  return bundle;
}

namespace {

bool IsAncestorByParent(const NavigationTree& nav, NavNodeId a, NavNodeId u) {
  while (u != kInvalidNavNode && u != a) u = nav.parent(u);
  return u == a;
}

}  // namespace

int ReferenceSubtreeDistinct(const NavigationTree& nav, NavNodeId id) {
  std::set<size_t> seen;
  for (NavNodeId u = 0; u < static_cast<NavNodeId>(nav.size()); ++u) {
    if (!IsAncestorByParent(nav, id, u)) continue;
    for (size_t i : nav.results(u).ToIndexes()) seen.insert(i);
  }
  return static_cast<int>(seen.size());
}

std::vector<std::vector<NavNodeId>> ChildrenByParent(
    const NavigationTree& nav) {
  std::vector<std::vector<NavNodeId>> children(nav.size());
  for (NavNodeId u = 1; u < static_cast<NavNodeId>(nav.size()); ++u) {
    children[static_cast<size_t>(nav.parent(u))].push_back(u);
  }
  return children;
}

::testing::AssertionResult MatchesStructuralOracles(const NavigationTree& nav) {
  const NavNodeId n = static_cast<NavNodeId>(nav.size());
  if (n == 0 || nav.parent(NavigationTree::kRoot) != kInvalidNavNode) {
    return ::testing::AssertionFailure() << "tree has no root";
  }
  const std::vector<std::vector<NavNodeId>> children = ChildrenByParent(nav);
  // Descendant counts (self included) by walking every node's parent chain.
  std::vector<NavNodeId> descendants(static_cast<size_t>(n), 0);
  for (NavNodeId u = 0; u < n; ++u) {
    for (NavNodeId a = u; a != kInvalidNavNode; a = nav.parent(a)) {
      if (a < 0 || a >= n || a > u) {
        return ::testing::AssertionFailure()
               << "node " << u << " has ancestor " << a << " out of order";
      }
      ++descendants[static_cast<size_t>(a)];
    }
  }
  for (NavNodeId id = 0; id < n; ++id) {
    const std::vector<NavNodeId>& want = children[static_cast<size_t>(id)];
    std::vector<NavNodeId> visited;
    nav.ForEachChild(id, [&](NavNodeId c) { visited.push_back(c); });
    if (visited != want) {
      return ::testing::AssertionFailure()
             << "ForEachChild order diverges at node " << id;
    }
    std::vector<NavNodeId> chained;
    for (NavNodeId c = nav.first_child(id); c != kInvalidNavNode;
         c = nav.next_sibling(c)) {
      chained.push_back(c);
    }
    if (chained != want) {
      return ::testing::AssertionFailure()
             << "first_child/next_sibling chain diverges at node " << id;
    }
    const NavNodeId end = nav.SubtreeEnd(id);
    if (end - id != descendants[static_cast<size_t>(id)]) {
      return ::testing::AssertionFailure()
             << "SubtreeEnd(" << id << ") = " << end << " but the node has "
             << descendants[static_cast<size_t>(id)] << " descendants";
    }
    DynamicBitset acc = nav.result().MakeBitset();
    for (NavNodeId u = id; u < end; ++u) {
      if (!IsAncestorByParent(nav, id, u)) {
        return ::testing::AssertionFailure()
               << "node " << u << " lies in [" << id << ", " << end
               << ") but descends elsewhere";
      }
      acc.UnionWith(nav.results(u));
    }
    if (!(nav.SubtreeResults(id) == acc)) {
      return ::testing::AssertionFailure()
             << "SubtreeResults(" << id << ") is not the union of its range";
    }
    if (nav.SubtreeDistinct(id) != static_cast<int>(acc.Count())) {
      return ::testing::AssertionFailure()
             << "SubtreeDistinct(" << id << ") = " << nav.SubtreeDistinct(id)
             << ", expected " << acc.Count();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bionav::testing
