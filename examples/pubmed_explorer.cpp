// PubMed explorer: navigates the synthetic MEDLINE built by the workload
// module, reproducing the paper's Fig 2 interaction on the prothymosin-like
// query (or any workload query named on the command line).
//
// Usage:
//   pubmed_explorer [query-name] [--interactive]
//
// Scripted mode drives the oracle navigation toward the query's target
// concept, printing the interface after each EXPAND. Interactive mode reads
// commands from stdin:
//   expand <label> | show <label> | back | tree | quit

#include <iostream>
#include <sstream>
#include <string>

#include "bionav.h"

using namespace bionav;

namespace {

void RunScripted(const Workload& workload, size_t query_index) {
  const GeneratedQuery& q = workload.query(query_index);
  std::unique_ptr<NavigationTree> nav =
      workload.BuildNavigationTree(query_index);
  CostModel cost_model(nav.get());
  HeuristicReducedOpt strategy(&cost_model);
  ActiveTree active(nav.get());

  const ConceptHierarchy& mesh = workload.hierarchy();
  std::cout << "Query '" << q.spec.name << "': " << nav->result().size()
            << " citations, navigation tree " << nav->size() << " nodes\n"
            << "Target concept: '" << mesh.label(q.target) << "' (MeSH level "
            << mesh.depth(q.target) << ")\n\n";

  NavNodeId target_node = nav->NodeOfConcept(q.target);
  BIONAV_CHECK_NE(target_node, kInvalidNavNode);

  int step = 0;
  while (!active.IsVisible(target_node)) {
    int comp = active.ComponentOf(target_node);
    NavNodeId root = active.ComponentRoot(comp);
    EdgeCut cut = strategy.ChooseEdgeCut(active, root);
    active.ApplyEdgeCut(root, cut).status().CheckOK();
    ++step;
    std::cout << "--- EXPAND #" << step << " on '"
              << mesh.label(nav->concept_of(root)) << "' revealed "
              << cut.size() << " concepts ("
              << TextTable::Num(strategy.last_stats().elapsed_ms, 2)
              << " ms, reduced tree "
              << strategy.last_stats().reduced_tree_size << " nodes)\n"
              << active.RenderAscii() << "\n";
  }
  std::cout << "Target '" << mesh.label(q.target)
            << "' is now visible. Navigation cost: " << step
            << " EXPANDs + revealed concepts.\n";
}

void RunInteractive(const Workload& workload, size_t query_index) {
  const GeneratedQuery& q = workload.query(query_index);
  EUtilsClient eutils = workload.corpus().MakeClient();
  NavigationSession session(&workload.hierarchy(), &eutils, q.spec.keyword,
                            MakeBioNavStrategyFactory());
  std::cout << "Query '" << q.spec.name << "': " << session.result_size()
            << " citations. Commands: expand <label> | show <label> | back |"
               " tree | quit\n"
            << session.Render() << "\n> " << std::flush;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    std::string arg;
    std::getline(iss, arg);
    std::string label(StripWhitespace(arg));
    if (cmd == "quit" || cmd == "q") break;
    if (cmd == "tree") {
      std::cout << session.Render();
    } else if (cmd == "back") {
      std::cout << (session.Backtrack() ? "undone\n" : "nothing to undo\n");
      std::cout << session.Render();
    } else if (cmd == "expand") {
      auto r = session.ExpandByLabel(label.empty() ? "MeSH" : label);
      if (!r.ok()) {
        std::cout << r.status().ToString() << "\n";
      } else {
        std::cout << session.Render();
      }
    } else if (cmd == "show") {
      NavNodeId node = session.FindVisibleByLabel(label);
      if (node == kInvalidNavNode) {
        std::cout << "no visible concept '" << label << "'\n";
      } else {
        auto summaries = session.ShowResults(node);
        if (!summaries.ok()) {
          std::cout << summaries.status().ToString() << "\n";
        } else {
          for (const CitationSummary& s : summaries.ValueOrDie()) {
            std::cout << "  PMID " << s.pmid << ": " << s.title << "\n";
          }
        }
      }
    } else if (!cmd.empty()) {
      std::cout << "unknown command '" << cmd << "'\n";
    }
    std::cout << "> " << std::flush;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_name = "prothymosin";
  bool interactive = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--interactive") {
      interactive = true;
    } else {
      query_name = arg;
    }
  }

  WorkloadOptions options;
  options.hierarchy_nodes = 12000;
  options.background_citations = 10000;
  options.result_scale = 0.5;
  std::cout << "Building synthetic MEDLINE ("
            << options.hierarchy_nodes << " concepts)...\n";
  Workload workload(options);

  size_t index = workload.num_queries();
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    if (workload.query(i).spec.name == query_name) {
      index = i;
      break;
    }
  }
  if (index == workload.num_queries()) {
    std::cerr << "unknown query '" << query_name << "'; available:\n";
    for (size_t i = 0; i < workload.num_queries(); ++i) {
      std::cerr << "  " << workload.query(i).spec.name << "\n";
    }
    return 1;
  }

  if (interactive) {
    RunInteractive(workload, index);
  } else {
    RunScripted(workload, index);
  }
  return 0;
}
