// Quickstart: the full BioNav API on a tiny hand-built dataset.
//
// Builds a miniature concept hierarchy and citation corpus, runs a keyword
// query through the eutils facade, constructs the navigation tree, and
// navigates it with the BioNav Heuristic-ReducedOpt policy, printing the
// visualization after each step — the programmatic equivalent of the
// paper's Fig 2 walk.

#include <iostream>

#include "bionav.h"

using namespace bionav;

int main() {
  // --- 1. A miniature MeSH-like hierarchy.
  ConceptHierarchy mesh;
  ConceptId bio = mesh.AddNode(ConceptHierarchy::kRoot,
                               "Biological Phenomena");
  ConceptId physio = mesh.AddNode(bio, "Cell Physiology");
  ConceptId death = mesh.AddNode(physio, "Cell Death");
  ConceptId apoptosis = mesh.AddNode(death, "Apoptosis");
  ConceptId necrosis = mesh.AddNode(death, "Necrosis");
  ConceptId growth = mesh.AddNode(physio, "Cell Growth Processes");
  ConceptId proliferation = mesh.AddNode(growth, "Cell Proliferation");
  ConceptId division = mesh.AddNode(proliferation, "Cell Division");
  ConceptId genetic = mesh.AddNode(ConceptHierarchy::kRoot,
                                   "Genetic Processes");
  ConceptId expression = mesh.AddNode(genetic, "Gene Expression");
  ConceptId transcription = mesh.AddNode(expression, "Transcription, Genetic");
  mesh.Freeze();

  // --- 2. A miniature MEDLINE: citations with keyword terms, plus
  //         concept<->citation associations.
  CitationStore store;
  AssociationTable assoc(mesh.size());
  auto add = [&](uint64_t pmid, const std::string& title,
                 const std::vector<std::string>& terms,
                 const std::vector<ConceptId>& concepts) {
    Citation c;
    c.pmid = pmid;
    c.title = title;
    c.year = 2008;
    for (const auto& t : terms) c.term_ids.push_back(store.InternTerm(t));
    CitationId id = store.Add(std::move(c));
    for (ConceptId k : concepts) {
      assoc.Associate(id, k, AssociationKind::kAnnotated);
    }
  };
  add(1, "Prothymosin alpha in apoptosis", {"prothymosin", "apoptosis"},
      {apoptosis, death, physio});
  add(2, "Proliferation control by prothymosin", {"prothymosin"},
      {proliferation, division, growth});
  add(3, "Prothymosin and transcription", {"prothymosin"},
      {transcription, expression});
  add(4, "Necrotic pathways", {"prothymosin", "necrosis"},
      {necrosis, death});
  add(5, "Cell cycle studies", {"prothymosin"},
      {proliferation, transcription});
  add(6, "Unrelated cardiology paper", {"heart"}, {physio});

  InvertedIndex index(store);
  EUtilsClient eutils(&store, &index, &assoc);

  // --- 3. One session = one keyword query navigated with BioNav.
  NavigationSession session(&mesh, &eutils, "prothymosin",
                            MakeBioNavStrategyFactory());
  std::cout << "Query 'prothymosin' matched " << session.result_size()
            << " citations; navigation tree has "
            << session.navigation_tree().size() << " nodes\n\n";

  std::cout << "Initial visualization (only the root is visible):\n"
            << session.Render() << "\n";

  // --- 4. EXPAND the root: BioNav reveals a cost-optimal set of
  //         descendants, not all children.
  auto revealed = session.Expand(NavigationTree::kRoot);
  revealed.status().CheckOK();
  std::cout << "After EXPAND of the root (" << revealed.ValueOrDie().size()
            << " concepts revealed):\n"
            << session.Render() << "\n";

  // --- 5. Drill into a revealed concept, if it is expandable.
  for (NavNodeId node : revealed.ValueOrDie()) {
    int comp = session.active_tree().ComponentOf(node);
    if (session.active_tree().ComponentSize(comp) >= 2) {
      const std::string& label =
          mesh.label(session.navigation_tree().concept_of(node));
      auto deeper = session.Expand(node);
      deeper.status().CheckOK();
      std::cout << "After EXPAND of '" << label << "':\n"
                << session.Render() << "\n";
      break;
    }
  }

  // --- 6. SHOWRESULTS on a visible concept.
  NavNodeId show = session.FindVisibleByLabel("Cell Proliferation");
  if (show == kInvalidNavNode) show = NavigationTree::kRoot;
  auto summaries = session.ShowResults(show);
  summaries.status().CheckOK();
  std::cout << "SHOWRESULTS on '"
            << mesh.label(session.navigation_tree().concept_of(show))
            << "':\n";
  for (const CitationSummary& s : summaries.ValueOrDie()) {
    std::cout << "  PMID " << s.pmid << ": " << s.title << " (" << s.year
              << ")\n";
  }

  // --- 7. BACKTRACK undoes the last EXPAND.
  session.Backtrack();
  std::cout << "\nAfter BACKTRACK:\n" << session.Render();
  return 0;
}
