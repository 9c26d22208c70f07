#include "algo/heuristic_reduced_opt.h"

#include <algorithm>

#include "algo/k_partition.h"
#include "algo/reduced_tree.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace bionav {

namespace {

LatencyHistogram* OptCutHistogram() {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_engine_opt_edgecut_us",
      "Opt-EdgeCut DP solve per EXPAND (paper Fig 10 stage)");
  return hist;
}

}  // namespace

HeuristicReducedOpt::HeuristicReducedOpt(const CostModel* cost_model,
                                         HeuristicReducedOptOptions options)
    : cost_model_(cost_model), options_(options) {
  BIONAV_CHECK(cost_model != nullptr);
  BIONAV_CHECK_GE(options_.max_partitions, 2);
  BIONAV_CHECK_LE(options_.max_partitions, kMaxSmallTreeNodes);
  BIONAV_CHECK_GT(options_.bound_growth, 1.0);
}

void HeuristicReducedOpt::SeedCache(const Reduction& reduction,
                                    SmallTreeMask mask,
                                    const std::vector<int>& cut_supernodes,
                                    NavNodeId root) {
  auto members_of = [&](SmallTreeMask m) {
    size_t total = 0;
    for (SmallTreeMask rest = m; rest;) {
      int v = __builtin_ctz(rest);
      rest &= rest - 1;
      total += static_cast<size_t>(
          (*reduction.supernode_sizes)[static_cast<size_t>(v)]);
    }
    return total;
  };

  SmallTreeMask upper = mask;
  for (int s : cut_supernodes) {
    SmallTreeMask lower = mask & reduction.tree->SubtreeMask(s);
    upper &= ~lower;
    if (SmallTree::MaskSize(lower) >= 2) {
      cache_[reduction.tree->node(s).origin] =
          CacheEntry{reduction, lower, members_of(lower)};
    } else {
      // Single supernode: its internal structure is not in this reduction;
      // a future expansion must re-reduce, so do not cache.
      cache_.erase(reduction.tree->node(s).origin);
    }
  }
  if (SmallTree::MaskSize(upper) >= 2) {
    cache_[root] = CacheEntry{reduction, upper, members_of(upper)};
  } else {
    cache_.erase(root);
  }
}

std::optional<EdgeCut> HeuristicReducedOpt::ChooseMemoizedCut(
    const ActiveTree& active, NavNodeId root) {
  if (!UsesMemo()) return std::nullopt;
  replay_ = memo_->Find(MemoOptions(), active, root).hit;
  if (replay_ == nullptr) return std::nullopt;
  // ChooseEdgeCut answers the hit without probing again, so an override
  // that wraps it (a tracing or gating strategy) sees this cut like any
  // other.
  EdgeCut cut = ChooseEdgeCut(active, root);
  replay_ = nullptr;  // Consumed, unless an override never reached ours.
  return cut;
}

EdgeCut HeuristicReducedOpt::ChooseEdgeCut(const ActiveTree& active,
                                           NavNodeId root) {
  static LatencyHistogram* choose_hist = GlobalMetrics().GetHistogram(
      "bionav_engine_choose_cut_us",
      "Heuristic-ReducedOpt ChooseEdgeCut end to end");
  static Counter* dp_hits = GlobalMetrics().GetCounter(
      "bionav_engine_dp_cache_hits_total",
      "EXPANDs answered from a prior reduction's memoized DP");
  static Counter* dp_misses = GlobalMetrics().GetCounter(
      "bionav_engine_dp_cache_misses_total",
      "EXPANDs that had to reduce the component from scratch");
  static Counter* fallbacks = GlobalMetrics().GetCounter(
      "bionav_engine_expand_fallback_total",
      "EXPANDs that fell back to revealing all children (no usable "
      "reduction)");
  static LatencyHistogram* inc_reuse_hist = GlobalMetrics().GetHistogram(
      "bionav_engine_incremental_reuse_us",
      "EXPANDs answered from the incremental memo (validation + replay)");
  static LatencyHistogram* inc_invalidated_hist = GlobalMetrics().GetHistogram(
      "bionav_engine_incremental_invalidated_us",
      "Stale incremental-memo probes (validation time before recompute)");
  static Counter* inc_hits = GlobalMetrics().GetCounter(
      "bionav_engine_incremental_hits_total",
      "EXPANDs replayed bit-identically from the incremental memo");
  static Counter* subtrees_recomputed = GlobalMetrics().GetCounter(
      "bionav_engine_subtrees_recomputed",
      "Component subtrees recomputed from scratch (incremental memo misses "
      "plus runs with the incremental engine off)");
  TraceSpan choose_span("choose_cut", choose_hist);
  Timer timer;
  last_stats_ = ExpandStats{};
  int comp = active.ComponentOf(root);
  BIONAV_CHECK_EQ(active.ComponentRoot(comp), root)
      << "EXPAND must target a visible component root";
  BIONAV_CHECK_GE(active.ComponentSize(comp), 2u);

  // Incremental fast path: replay the memoized cut when the exact component
  // recurs — in this session or, through the artifact's shared memo, in any
  // session of the query. CutMemo::Find validates each candidate against
  // this session's active tree, so the replay is bit-identical to a fresh
  // recompute; an entry stale here stays for the sessions it still fits.
  // Mutually exclusive with reuse_dp, which intentionally trades cut quality
  // for speed and would break bit-identity.
  // Called from ChooseMemoizedCut, the probe has just hit for this very
  // call: replay that hit.
  const bool use_incremental = UsesMemo();
  const CutMemo::Options memo_options = MemoOptions();
  if (use_incremental) {
    CutMemo::Probe probe;
    if (replay_ != nullptr) {
      probe.hit = std::move(replay_);
    } else {
      probe = memo_->Find(memo_options, active, root);
    }
    if (probe.hit != nullptr) {
      inc_hits->Increment();
      last_stats_.reduced_tree_size = probe.hit->reduced_tree_size;
      last_stats_.partition_rounds = probe.hit->partition_rounds;
      last_stats_.incremental_hit = true;
      last_stats_.elapsed_ms = timer.ElapsedMillis();
      inc_reuse_hist->Record(timer.ElapsedMicros());
      return probe.hit->cut;
    }
    if (probe.stale) inc_invalidated_hist->Record(timer.ElapsedMicros());
  }

  // Fast path (Section VI-B): a previous reduction already covers this
  // component — its optimal cut is in the memoized DP.
  if (options_.reuse_dp) {
    auto it = cache_.find(root);
    if (it != cache_.end() &&
        it->second.expected_members == active.ComponentSize(comp) &&
        SmallTree::MaskSize(it->second.mask) >= 2) {
      dp_hits->Increment();
      const CacheEntry entry = it->second;  // Copy; SeedCache mutates map.
      std::vector<int> cut_supernodes;
      {
        TraceSpan opt_span("opt_edgecut", OptCutHistogram());
        cut_supernodes = entry.reduction.opt->BestCut(entry.mask);
      }
      BIONAV_CHECK(!cut_supernodes.empty());
      EdgeCut cut;
      for (int s : cut_supernodes) {
        cut.cut_children.push_back(entry.reduction.tree->node(s).origin);
      }
      SeedCache(entry.reduction, entry.mask, cut_supernodes, root);
      last_stats_.reduced_tree_size = SmallTree::MaskSize(entry.mask);
      last_stats_.cache_hit = true;
      last_stats_.elapsed_ms = timer.ElapsedMillis();
      return cut;
    }
  }

  // Memoizes the freshly computed answer for this component shape.
  auto remember = [&](const EdgeCut& cut) {
    if (!use_incremental) return;
    CutMemo::Entry entry;
    entry.cut = cut;
    entry.reduced_tree_size = last_stats_.reduced_tree_size;
    entry.partition_rounds = last_stats_.partition_rounds;
    memo_->Insert(memo_options, active, root, std::move(entry),
                  options_.incremental_max_entries);
  };

  dp_misses->Increment();
  subtrees_recomputed->Increment();
  // Small components run Opt-EdgeCut exactly (every node its own
  // supernode); larger ones are k-partition-reduced first.
  std::optional<ReducedComponent> reduced =
      ReduceComponent(active, *cost_model_, comp, options_.max_partitions);
  if (!reduced.has_value()) {
    fallbacks->Increment();
    // Pathological tie structure with no usable reduction: fall back to
    // revealing all children of the expanded node (always a valid cut).
    EdgeCut fallback;
    active.nav().ForEachChild(root, [&](NavNodeId c) {
      if (active.ComponentOf(c) == comp) fallback.cut_children.push_back(c);
    });
    BIONAV_CHECK(!fallback.empty());
    remember(fallback);
    last_stats_.elapsed_ms = timer.ElapsedMillis();
    return fallback;
  }
  last_stats_.partition_rounds = reduced->partition_rounds;
  last_stats_.reduced_tree_size = reduced->tree.size();

  Reduction reduction;
  reduction.tree = std::make_shared<SmallTree>(std::move(reduced->tree));
  reduction.opt =
      std::make_shared<OptEdgeCut>(reduction.tree.get(), cost_model_);
  reduction.supernode_sizes = std::make_shared<std::vector<int>>(
      std::move(reduced->supernode_sizes));

  SmallTreeMask full = reduction.tree->FullMask();
  std::vector<int> cut_supernodes;
  {
    TraceSpan opt_span("opt_edgecut", OptCutHistogram());
    cut_supernodes = reduction.opt->BestCut(full);
  }
  BIONAV_CHECK(!cut_supernodes.empty());

  EdgeCut cut;
  cut.cut_children.reserve(cut_supernodes.size());
  for (int s : cut_supernodes) {
    cut.cut_children.push_back(reduction.tree->node(s).origin);
  }
  if (options_.reuse_dp) {
    SeedCache(reduction, full, cut_supernodes, root);
  }
  remember(cut);
  last_stats_.elapsed_ms = timer.ElapsedMillis();
  return cut;
}

}  // namespace bionav
