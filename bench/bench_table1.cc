// Reproduces Table I: the query-workload characteristics — result size,
// navigation-tree size / max width / height, citations with duplicates, and
// the target concept's MeSH level, |L(target)| and |LT(target)|.
//
// Flags: --threads=N (parallel per-query fixture builds), --json=PATH.

#include <iostream>

#include "bench_common.h"

using namespace bionav;
using namespace bionav::bench;

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  PrintPreamble("Table I: Query Workload");

  const Workload& w = SharedWorkload();
  TextTable table;
  table.SetHeader({"Query", "#Citations", "NavTree Size", "Max Width",
                   "Height", "Citations w/ Dup", "Target Concept",
                   "MeSH Level", "|L(t)|", "|LT(t)|"});

  Timer timer;
  std::vector<std::vector<std::string>> rows = ParallelMap<
      std::vector<std::string>>(opts.threads, w.num_queries(), [&](size_t i) {
    QueryFixture f = BuildQueryFixture(w, i);
    const GeneratedQuery& q = *f.query;
    NavNodeId tnode = f.nav->NodeOfConcept(q.target);
    int attached =
        tnode == kInvalidNavNode ? 0 : f.nav->attached_count(tnode);
    return std::vector<std::string>{
        q.spec.name,
        std::to_string(f.nav->result().size()),
        std::to_string(f.nav->size()),
        std::to_string(f.nav->MaxWidth()),
        std::to_string(f.nav->Height()),
        std::to_string(f.nav->TotalAttachedWithDuplicates()),
        w.hierarchy().label(q.target),
        std::to_string(w.hierarchy().depth(q.target)),
        std::to_string(attached),
        std::to_string(w.corpus().associations.GlobalCount(q.target)),
    };
  });
  double wall_ms = timer.ElapsedMillis();
  for (std::vector<std::string>& row : rows) table.AddRow(row);
  std::cout << table.ToString();
  AppendJsonRecord(opts.json_path, "bench_table1", "default", opts.threads,
                   wall_ms,
                   PerSec(static_cast<double>(w.num_queries()), wall_ms));
  return 0;
}
