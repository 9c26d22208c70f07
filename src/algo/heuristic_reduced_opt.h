#ifndef BIONAV_ALGO_HEURISTIC_REDUCED_OPT_H_
#define BIONAV_ALGO_HEURISTIC_REDUCED_OPT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/cut_memo.h"
#include "algo/expand_strategy.h"
#include "algo/opt_edgecut.h"
#include "algo/small_tree.h"

namespace bionav {

/// Options for Heuristic-ReducedOpt (paper Section VI-B).
struct HeuristicReducedOptOptions {
  /// Maximum reduced-tree size K on which Opt-EdgeCut runs in real time.
  /// The paper uses K = 10.
  int max_partitions = 10;
  /// Multiplicative growth of the k-partition weight bound B between
  /// rounds ("gradually increasing B until <= K partitions are obtained").
  double bound_growth = 1.3;
  /// Section VI-B remark: once Opt-EdgeCut has run on a reduced tree, the
  /// optimal cuts of every component it can create are already in the DP
  /// memo, so expansions of those components can be answered from the
  /// cache instead of re-reducing. Cached answers keep supernode
  /// granularity (coarser than a fresh k-partition of the smaller
  /// component) — the speed/quality trade-off Ablation E measures. When a
  /// cached component bottoms out at a single supernode, the strategy
  /// falls back to a fresh reduction of its contents.
  bool reuse_dp = false;
  /// Cross-EXPAND incremental engine: memoize the chosen cut per component
  /// shape in a CutMemo and replay it whenever the exact component recurs
  /// (deep sessions revisit shapes via BACKTRACK and sibling expansions;
  /// sessions of one hot query walk the same shapes). Unlike `reuse_dp`,
  /// replayed answers are bit-identical to a from-scratch recompute —
  /// ChooseEdgeCut is a pure function of the component member set, and
  /// memo entries self-validate against the live active tree (see
  /// DESIGN.md "Incremental navigation engine"), so no event-driven
  /// invalidation is needed and BACKTRACK restores prior state for free.
  /// Ignored while `reuse_dp` is on (that path intentionally changes cuts).
  bool incremental = true;
  /// Entry cap for the cut memo; exceeding it clears the memo (correctness
  /// is unaffected — entries are a pure cache).
  size_t incremental_max_entries = 4096;
};

/// The BioNav expansion policy: reduce the expanded component to at most K
/// supernodes with the k-partition algorithm (weight bound B = W(T)/K,
/// grown until the partition count fits), run Opt-EdgeCut on the reduced
/// tree, and map the optimal reduced cut back to navigation-tree edges.
class HeuristicReducedOpt : public ExpandStrategy {
 public:
  HeuristicReducedOpt(const CostModel* cost_model,
                      HeuristicReducedOptOptions options =
                          HeuristicReducedOptOptions());

  EdgeCut ChooseEdgeCut(const ActiveTree& active, NavNodeId root) override;

  std::string name() const override { return "Heuristic-ReducedOpt"; }

  const HeuristicReducedOptOptions& options() const { return options_; }

  /// Answers and records cuts in `memo` (the query artifact's, shared by
  /// every session of the query) instead of the strategy's own. `memo` must
  /// outlive the strategy and belong to the navigation tree and cost model
  /// the strategy runs on.
  void ShareCutMemo(CutMemo* memo) override {
    BIONAV_CHECK(memo != nullptr);
    memo_ = memo;
  }

  std::optional<EdgeCut> ChooseMemoizedCut(const ActiveTree& active,
                                           NavNodeId root) override;

  /// Drops the cached reductions and the strategy's own cut memo (a shared
  /// memo belongs to its artifact and is left alone). Cache misses are
  /// always safe; this only exists to release memory deterministically.
  void ClearCache() {
    cache_.clear();
    own_memo_.Clear();
  }

  /// Number of component entries currently cached (testing/metrics).
  size_t cache_size() const { return cache_.size(); }

  /// The cut memo this strategy answers from (testing/metrics).
  const CutMemo& cut_memo() const { return *memo_; }

 private:
  /// A reduction shared by all components the reduced tree can create.
  struct Reduction {
    std::shared_ptr<SmallTree> tree;
    std::shared_ptr<OptEdgeCut> opt;
    /// Navigation-tree member count per supernode (for cache validation).
    std::shared_ptr<std::vector<int>> supernode_sizes;
  };
  struct CacheEntry {
    Reduction reduction;
    SmallTreeMask mask = 0;
    size_t expected_members = 0;
  };

  /// Registers the components created by cutting `cut_supernodes` out of
  /// (reduction, mask) so later expansions can reuse the DP.
  void SeedCache(const Reduction& reduction, SmallTreeMask mask,
                 const std::vector<int>& cut_supernodes, NavNodeId root);

  /// Whether cuts go through the memo: incremental on and reuse_dp off.
  bool UsesMemo() const { return options_.incremental && !options_.reuse_dp; }
  CutMemo::Options MemoOptions() const {
    return {options_.max_partitions, options_.bound_growth};
  }

  const CostModel* cost_model_;
  HeuristicReducedOptOptions options_;
  std::unordered_map<NavNodeId, CacheEntry> cache_;
  CutMemo own_memo_;
  CutMemo* memo_ = &own_memo_;
  /// The hit ChooseMemoizedCut found, for the ChooseEdgeCut it calls to
  /// replay; set only within that one call.
  std::shared_ptr<const CutMemo::Entry> replay_;
};

}  // namespace bionav

#endif  // BIONAV_ALGO_HEURISTIC_REDUCED_OPT_H_
