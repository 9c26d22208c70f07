#ifndef BIONAV_SIM_SESSION_H_
#define BIONAV_SIM_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/expand_strategy.h"
#include "algo/heuristic_reduced_opt.h"
#include "cache/query_artifacts.h"
#include "core/active_tree.h"
#include "medline/eutils.h"
#include "obs/trace.h"

namespace bionav {

/// Builds the session's ExpandStrategy once the query's CostModel exists
/// (strategies such as Heuristic-ReducedOpt are bound to one cost model,
/// which is only constructed after the navigation tree is built).
using StrategyFactory =
    std::function<std::unique_ptr<ExpandStrategy>(const CostModel*)>;

/// Factory for the BioNav policy (Heuristic-ReducedOpt).
StrategyFactory MakeBioNavStrategyFactory(
    HeuristicReducedOptOptions options = HeuristicReducedOptOptions());

/// Factory for the static all-children baseline.
StrategyFactory MakeStaticStrategyFactory();

/// One applied EXPAND: the component root that was expanded and the exact
/// edge cut the strategy chose. The sequence of these records *is* the
/// session's durable state — EXPAND is deterministic given the artifacts,
/// so replaying the cuts (ApplyEdgeCut, bypassing the strategy) rebuilds an
/// identical ActiveTree, and BACKTRACK pops the same stack on both sides.
struct ExpandRecord {
  NavNodeId root = kInvalidNavNode;
  EdgeCut cut;
};

/// An interactive BioNav navigation session — the engine behind the web
/// interface of Section VII's architecture. Wraps the full online pipeline
/// for one keyword query: ESearch -> navigation-tree construction -> active
/// tree, and exposes the user actions of the navigation model (Section
/// III): EXPAND, SHOWRESULTS, IGNORE (a no-op on the engine; the user just
/// moves on) and BACKTRACK.
class NavigationSession {
 public:
  /// Cold path: runs the full pipeline privately for this session (the
  /// artifacts are unshared).
  NavigationSession(const ConceptHierarchy* hierarchy,
                    const EUtilsClient* eutils, std::string query,
                    StrategyFactory strategy_factory,
                    CostModelParams params = CostModelParams());

  /// Shared-artifact path: the result set, navigation tree and cost model
  /// come (typically shared, from the QueryArtifactCache) ready-built;
  /// only the per-session state — ActiveTree, strategy, trace ring — is
  /// constructed here, and the strategy is pointed at the artifacts' shared
  /// cut memo (ExpandStrategy::ShareCutMemo). `query` is the user's
  /// original string (ranking in ShowResults uses it verbatim; the
  /// artifacts are keyed by its normalized form).
  NavigationSession(const EUtilsClient* eutils,
                    std::shared_ptr<const QueryArtifacts> artifacts,
                    std::string query, StrategyFactory strategy_factory);

  /// Number of citations the query matched.
  size_t result_size() const { return nav().result().size(); }

  /// The query string this session navigates.
  const std::string& query() const { return query_; }

  const NavigationTree& navigation_tree() const { return nav(); }
  const ActiveTree& active_tree() const { return *active_; }
  const CostModel& cost_model() const { return *artifacts_->cost_model; }

  /// The per-query artifact bundle this session navigates (shared when the
  /// session was served from the QueryArtifactCache).
  const std::shared_ptr<const QueryArtifacts>& artifacts() const {
    return artifacts_;
  }

  /// EXPAND on a visible concept (by its navigation node). Returns the
  /// newly revealed navigation nodes.
  Result<std::vector<NavNodeId>> Expand(NavNodeId node);

  /// EXPAND only if it needs no cut computation: nullopt, with the session
  /// untouched, unless the strategy's cut memo already holds the cut (one
  /// memo probe, see ExpandStrategy::ChooseMemoizedCut). Otherwise exactly
  /// what Expand(node) returns, invalid requests' errors included.
  std::optional<Result<std::vector<NavNodeId>>> ExpandIfMemoized(
      NavNodeId node);

  /// EXPAND addressed by concept label (convenience for CLI examples).
  Result<std::vector<NavNodeId>> ExpandByLabel(const std::string& label);

  /// SHOWRESULTS on a visible concept: summaries of the distinct citations
  /// attached within its component subtree, ranked by relevance to the
  /// session query (then recency). `retstart`/`retmax` page the list the
  /// way PubMed's ESummary does; retmax = 0 means "all".
  Result<std::vector<CitationSummary>> ShowResults(NavNodeId node,
                                                   size_t retstart = 0,
                                                   size_t retmax = 0) const;

  /// BACKTRACK: undo the most recent EXPAND. False if none.
  bool Backtrack();

  /// Re-applies a recorded EXPAND verbatim (snapshot restore): the cut is
  /// validated and applied directly, without consulting the strategy, and
  /// appended to the expand log so further BACKTRACKs behave identically.
  Status ReplayExpand(NavNodeId root, const EdgeCut& cut);

  /// The EXPANDs currently applied (those a BACKTRACK would undo), oldest
  /// first. This is exactly what a snapshot persists.
  const std::vector<ExpandRecord>& expand_log() const { return expand_log_; }

  /// Name of the session's expansion policy ("Heuristic-ReducedOpt", ...).
  std::string strategy_name() const { return strategy_->name(); }

  /// Estimated heap bytes of the per-session state (active tree, expand
  /// log, query string). Excludes the shared query artifacts.
  size_t MemoryBytes() const;

  /// Visible node whose concept has the given label, or kInvalidNavNode.
  NavNodeId FindVisibleByLabel(const std::string& label) const;

  /// ASCII rendering of the current visualization, with revealed concepts
  /// ranked by their relevance to the query (paper Section II).
  std::string Render(int max_depth = 100) const;

  /// Retain the last `capacity` per-stage trace spans of this session's
  /// EXPANDs (k-partition, reduced-tree, opt-edgecut, ...). Off by default;
  /// `bionav_cli navigate --trace` turns it on.
  void EnableTracing(size_t capacity);

  /// The session's span ring, or nullptr when tracing is off.
  const SpanRing* span_ring() const { return ring_.get(); }

 private:
  const NavigationTree& nav() const { return *artifacts_->nav; }
  /// Expand and ExpandIfMemoized; nullopt only when `memo_only` and the
  /// memo does not hold the cut.
  std::optional<Result<std::vector<NavNodeId>>> ExpandImpl(NavNodeId node,
                                                           bool memo_only);

  const ConceptHierarchy* hierarchy_;
  const EUtilsClient* eutils_;
  std::string query_;
  /// Immutable per-query artifacts (possibly shared across sessions).
  std::shared_ptr<const QueryArtifacts> artifacts_;
  /// Per-session navigation state.
  std::unique_ptr<ExpandStrategy> strategy_;
  std::unique_ptr<ActiveTree> active_;
  std::vector<ExpandRecord> expand_log_;
  std::unique_ptr<SpanRing> ring_;
};

}  // namespace bionav

#endif  // BIONAV_SIM_SESSION_H_
