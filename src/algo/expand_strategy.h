#ifndef BIONAV_ALGO_EXPAND_STRATEGY_H_
#define BIONAV_ALGO_EXPAND_STRATEGY_H_

#include <optional>
#include <string>

#include "core/active_tree.h"
#include "core/cost_model.h"

namespace bionav {

class CutMemo;

/// Statistics for one ChooseEdgeCut invocation — what the paper reports in
/// Figs 10/11 (per-EXPAND execution time, reduced-tree size).
struct ExpandStats {
  double elapsed_ms = 0;
  /// Reduced-tree node count (Heuristic-ReducedOpt) or 0 if not applicable.
  int reduced_tree_size = 0;
  /// Number of k-partition invocations (B growth rounds); 0 if n/a.
  int partition_rounds = 0;
  /// True when the cut was answered from a cached Opt-EdgeCut DP
  /// (HeuristicReducedOptOptions::reuse_dp).
  bool cache_hit = false;
  /// True when the cut was answered from the bit-identical incremental
  /// memo (HeuristicReducedOptOptions::incremental) without recomputing.
  bool incremental_hit = false;
};

/// Interface of a node-expansion policy: given the active tree and the root
/// of the component the user clicked, decide the EdgeCut that the EXPAND
/// performs. Implementations: Heuristic-ReducedOpt (BioNav), static
/// all-children (GoPubMed-like), ranked-children + "more", greedy (ablation).
class ExpandStrategy {
 public:
  virtual ~ExpandStrategy() = default;

  /// Returns a non-empty valid EdgeCut for the component rooted at `root`.
  /// Requires the component to have at least 2 members.
  virtual EdgeCut ChooseEdgeCut(const ActiveTree& active, NavNodeId root) = 0;

  /// Human-readable strategy name for reports.
  virtual std::string name() const = 0;

  /// Points the strategy's cross-EXPAND cut memo at `memo`, which every
  /// session of one query artifact shares. No-op for strategies that keep
  /// no memo.
  virtual void ShareCutMemo(CutMemo* /*memo*/) {}

  /// Memo-only ChooseEdgeCut, for callers that must not compute a cut (the
  /// reactor's inline EXPAND): when the cut memo holds the cut of the
  /// component rooted at `root`, ChooseEdgeCut(active, root) replaying it
  /// (one memo probe in all); otherwise nullopt, with nothing recorded and
  /// last_stats() unchanged. Always nullopt for strategies without a memo.
  virtual std::optional<EdgeCut> ChooseMemoizedCut(
      const ActiveTree& /*active*/, NavNodeId /*root*/) {
    return std::nullopt;
  }

  /// Statistics of the most recent ChooseEdgeCut call.
  const ExpandStats& last_stats() const { return last_stats_; }

 protected:
  ExpandStats last_stats_;
};

}  // namespace bionav

#endif  // BIONAV_ALGO_EXPAND_STRATEGY_H_
