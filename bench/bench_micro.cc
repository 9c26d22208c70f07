// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// navigation-tree construction, EdgeCut application, k-partition, reduced
// tree building and the Opt-EdgeCut DP.
//
// Accepts --json=PATH (stripped before google-benchmark sees argv) to
// append one wall-clock record for the whole suite to the shared
// JSON-lines trajectory.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bionav.h"

namespace bionav {
namespace {

struct MicroFixture {
  ConceptHierarchy hierarchy;
  std::unique_ptr<SyntheticCorpus> corpus;
  std::shared_ptr<const ResultSet> result;

  MicroFixture() {
    HierarchyGeneratorOptions hopts;
    hopts.seed = 7;
    hopts.target_nodes = 8000;
    hierarchy = GenerateMeshLikeHierarchy(hopts);

    QuerySpec spec;
    spec.name = "micro";
    spec.keyword = "micro";
    spec.result_size = 300;
    spec.target_depth = 5;
    spec.num_themes = 4;
    CorpusGeneratorOptions copts;
    copts.seed = 8;
    copts.background_citations = 5000;
    corpus = GenerateCorpus(hierarchy, {spec}, copts);
    result = std::make_shared<const ResultSet>(
        corpus->index->Search(spec.keyword));
  }
};

MicroFixture& Fixture() {
  static MicroFixture* fixture = new MicroFixture();
  return *fixture;
}

void BM_NavigationTreeBuild(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    NavigationTree nav(f.hierarchy, f.corpus->associations, f.result);
    benchmark::DoNotOptimize(nav.size());
  }
}
BENCHMARK(BM_NavigationTreeBuild)->Unit(benchmark::kMillisecond);

void BM_ESearch(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    auto ids = f.corpus->index->Search("micro");
    benchmark::DoNotOptimize(ids.size());
  }
}
BENCHMARK(BM_ESearch);

void BM_ApplyEdgeCutAndBacktrack(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NavigationTree nav(f.hierarchy, f.corpus->associations, f.result);
  ActiveTree active(&nav);
  // Cut the first three children of the root.
  EdgeCut cut;
  nav.ForEachChild(NavigationTree::kRoot, [&](NavNodeId c) {
    if (cut.size() < 3) cut.cut_children.push_back(c);
  });
  for (auto _ : state) {
    active.ApplyEdgeCut(NavigationTree::kRoot, cut).status().CheckOK();
    active.Backtrack();
  }
}
BENCHMARK(BM_ApplyEdgeCutAndBacktrack)->Unit(benchmark::kMicrosecond);

void BM_KPartition(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NavigationTree nav(f.hierarchy, f.corpus->associations, f.result);
  ActiveTree active(&nav);
  int64_t total = nav.TotalAttachedWithDuplicates();
  double bound = static_cast<double>(total) / 10.0;
  for (auto _ : state) {
    auto parts = KPartitionComponent(active, 0, bound);
    benchmark::DoNotOptimize(parts.size());
  }
}
BENCHMARK(BM_KPartition)->Unit(benchmark::kMicrosecond);

void BM_HeuristicChooseEdgeCut(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NavigationTree nav(f.hierarchy, f.corpus->associations, f.result);
  CostModel cost_model(&nav);
  ActiveTree active(&nav);
  HeuristicReducedOptOptions options;
  options.max_partitions = static_cast<int>(state.range(0));
  HeuristicReducedOpt strategy(&cost_model, options);
  for (auto _ : state) {
    EdgeCut cut = strategy.ChooseEdgeCut(active, NavigationTree::kRoot);
    benchmark::DoNotOptimize(cut.size());
  }
}
BENCHMARK(BM_HeuristicChooseEdgeCut)
    ->Arg(6)
    ->Arg(10)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond);

void BM_OptEdgeCutDP(benchmark::State& state) {
  // A balanced literal tree of state.range(0) nodes.
  const int n = static_cast<int>(state.range(0));
  std::vector<SmallTree::Node> nodes(static_cast<size_t>(n));
  Rng rng(99);
  for (int i = 0; i < n; ++i) {
    nodes[static_cast<size_t>(i)].parent = i == 0 ? -1 : (i - 1) / 2;
    nodes[static_cast<size_t>(i)].results = DynamicBitset(64);
    for (int b = 0; b < 8; ++b) {
      nodes[static_cast<size_t>(i)].results.Set(rng.Uniform(64));
    }
    nodes[static_cast<size_t>(i)].distinct =
        static_cast<int>(nodes[static_cast<size_t>(i)].results.Count());
    nodes[static_cast<size_t>(i)].explore_weight = 1.0;
    nodes[static_cast<size_t>(i)].origin = i;
  }
  SmallTree tree(std::move(nodes));

  MicroFixture& f = Fixture();
  NavigationTree nav(f.hierarchy, f.corpus->associations, f.result);
  CostModel cost_model(&nav);
  for (auto _ : state) {
    OptEdgeCut opt(&tree, &cost_model);
    benchmark::DoNotOptimize(opt.ComponentCost(tree.FullMask()));
  }
}
BENCHMARK(BM_OptEdgeCutDP)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bionav

int main(int argc, char** argv) {
  // Our flags must come out of argv before benchmark::Initialize, which
  // rejects anything it does not recognize.
  bionav::bench::BenchOptions opts =
      bionav::bench::ParseBenchOptions(&argc, argv);
  // --warmup=N maps onto google-benchmark's discarded warmup phase: each
  // unit requests 0.1s of per-benchmark warmup before measured batches.
  std::vector<char*> args(argv, argv + argc);
  std::string warmup_flag;
  if (opts.warmup > 0) {
    warmup_flag = "--benchmark_min_warmup_time=" +
                  std::to_string(0.1 * opts.warmup);
    args.insert(args.begin() + 1, warmup_flag.data());
    ++argc;
  }
  argv = args.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bionav::Timer timer;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bionav::bench::AppendJsonRecord(opts.json_path, "bench_micro", "suite",
                                  opts.threads, timer.ElapsedMillis(),
                                  /*sessions_per_sec=*/0.0);
  return 0;
}
