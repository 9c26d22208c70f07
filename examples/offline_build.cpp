// Offline/online split of the paper's Section VII architecture (Fig 7):
//
//   off-line:  download citations  ->  build the BioNav database
//              (hierarchy + de-normalized associations + keyword index)
//              ->  persist it to disk;
//   on-line:   load the database  ->  serve keyword queries with
//              interactive BioNav navigation.
//
// The paper's offline crawl took ~20 days against NCBI's eutils; here the
// "download" is the synthetic corpus generator, and the resulting database
// file can be reloaded instantly by any later process.
//
// Usage: offline_build [database-path]

#include <iostream>

#include "bionav.h"

using namespace bionav;

int main(int argc, char** argv) {
  std::string path =
      argc > 1 ? argv[1] : "/tmp/bionav_demo_database.txt";

  // ---- Off-line phase -----------------------------------------------------
  std::cout << "[off-line] generating the MeSH-like hierarchy and the"
               " citation corpus...\n";
  HierarchyGeneratorOptions hopts;
  hopts.seed = 2009;
  hopts.target_nodes = 8000;
  ConceptHierarchy hierarchy = GenerateMeshLikeHierarchy(hopts);

  QuerySpec spec;
  spec.name = "prothymosin";
  spec.keyword = "prothymosin";
  spec.result_size = 160;
  spec.target_depth = 5;
  spec.num_themes = 4;
  CorpusGeneratorOptions copts;
  copts.seed = 2010;
  copts.background_citations = 6000;
  auto corpus = GenerateCorpus(hierarchy, {spec}, copts);
  std::cout << "[off-line] corpus: " << corpus->store.size()
            << " citations, " << corpus->associations.TotalPairs()
            << " concept-citation pairs\n";

  Status saved = SaveCorpusToFile(hierarchy, *corpus, path);
  saved.CheckOK();
  std::cout << "[off-line] BioNav database written to " << path << "\n\n";

  // ---- On-line phase ------------------------------------------------------
  std::cout << "[on-line] loading the database...\n";
  auto db = BioNavDatabase::LoadFromFile(path);
  db.status().CheckOK();
  const BioNavDatabase& database = *db.ValueOrDie();
  std::cout << "[on-line] " << database.hierarchy().size() << " concepts, "
            << database.store().size() << " citations, "
            << database.associations().TotalPairs() << " pairs\n";

  EUtilsClient client = database.MakeClient();
  NavigationSession session(&database.hierarchy(), &client, "prothymosin",
                            MakeBioNavStrategyFactory());
  std::cout << "[on-line] query 'prothymosin' matched "
            << session.result_size() << " citations; navigation tree "
            << session.navigation_tree().size() << " nodes\n\n";

  session.Expand(NavigationTree::kRoot).status().CheckOK();
  std::cout << "Interface after the first EXPAND:\n" << session.Render(2);

  // Top-ranked citations of the first visible expandable concept.
  for (NavNodeId id = 1;
       id < static_cast<NavNodeId>(session.navigation_tree().size()); ++id) {
    if (!session.active_tree().IsVisible(id)) continue;
    auto top = session.ShowResults(id, /*retstart=*/0, /*retmax=*/3);
    top.status().CheckOK();
    std::cout << "\nTop results under '"
              << database.hierarchy().label(
                     session.navigation_tree().concept_of(id))
              << "':\n";
    for (const CitationSummary& s : top.ValueOrDie()) {
      std::cout << "  PMID " << s.pmid << " (" << s.year << "): " << s.title
                << "\n";
    }
    break;
  }
  return 0;
}
