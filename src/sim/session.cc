#include "sim/session.h"

#include "algo/static_navigation.h"
#include "core/ranking.h"
#include "core/result_set.h"

namespace bionav {

StrategyFactory MakeBioNavStrategyFactory(HeuristicReducedOptOptions options) {
  return [options](const CostModel* cost_model) {
    return std::make_unique<HeuristicReducedOpt>(cost_model, options);
  };
}

StrategyFactory MakeStaticStrategyFactory() {
  return [](const CostModel*) {
    return std::make_unique<StaticNavigationStrategy>();
  };
}

NavigationSession::NavigationSession(const ConceptHierarchy* hierarchy,
                                     const EUtilsClient* eutils,
                                     std::string query,
                                     StrategyFactory strategy_factory,
                                     CostModelParams params)
    : NavigationSession(
          eutils,
          // On-line pipeline of Section VII: ESearch for citation ids, then
          // the navigation tree from the association table, then the cost
          // model, built privately for this session.
          [&] {
            BIONAV_CHECK(hierarchy != nullptr);
            BIONAV_CHECK(eutils != nullptr);
            return BuildQueryArtifacts(*hierarchy, *eutils, query, params);
          }(),
          query, std::move(strategy_factory)) {}

NavigationSession::NavigationSession(
    const EUtilsClient* eutils, std::shared_ptr<const QueryArtifacts> artifacts,
    std::string query, StrategyFactory strategy_factory)
    : eutils_(eutils),
      query_(std::move(query)),
      artifacts_(std::move(artifacts)) {
  BIONAV_CHECK(eutils != nullptr);
  BIONAV_CHECK(strategy_factory != nullptr);
  BIONAV_CHECK(artifacts_ != nullptr);
  BIONAV_CHECK(artifacts_->nav != nullptr);
  BIONAV_CHECK(artifacts_->cost_model != nullptr);
  hierarchy_ = &artifacts_->nav->hierarchy();
  strategy_ = strategy_factory(artifacts_->cost_model.get());
  strategy_->ShareCutMemo(&artifacts_->cut_memo);
  active_ = std::make_unique<ActiveTree>(artifacts_->nav.get());
}

Result<std::vector<NavNodeId>> NavigationSession::Expand(NavNodeId node) {
  return *ExpandImpl(node, /*memo_only=*/false);
}

std::optional<Result<std::vector<NavNodeId>>>
NavigationSession::ExpandIfMemoized(NavNodeId node) {
  return ExpandImpl(node, /*memo_only=*/true);
}

std::optional<Result<std::vector<NavNodeId>>> NavigationSession::ExpandImpl(
    NavNodeId node, bool memo_only) {
  if (node < 0 || static_cast<size_t>(node) >= nav().size()) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!active_->IsVisible(node)) {
    return Status::FailedPrecondition("EXPAND requires a visible concept");
  }
  int comp = active_->ComponentOf(node);
  if (active_->ComponentSize(comp) < 2) {
    return Status::FailedPrecondition(
        "concept has no hidden descendants to reveal");
  }
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_engine_expand_us",
      "Full EXPAND: edge-cut selection plus active-tree application");
  static Counter* expands = GlobalMetrics().GetCounter(
      "bionav_engine_expand_total", "EXPAND operations executed");
  // Install this session's ring (when tracing is on) so the stage spans
  // opened inside the strategy and the active tree land in it.
  ScopedSpanRing ring_scope(ring_.get());
  TraceSpan span("expand", hist);
  EdgeCut cut;
  if (memo_only) {
    std::optional<EdgeCut> memoized =
        strategy_->ChooseMemoizedCut(*active_, node);
    if (!memoized.has_value()) {
      span.Cancel();
      return std::nullopt;
    }
    cut = std::move(*memoized);
  } else {
    cut = strategy_->ChooseEdgeCut(*active_, node);
  }
  expands->Increment();
  Result<std::vector<NavNodeId>> revealed = active_->ApplyEdgeCut(node, cut);
  if (revealed.ok()) expand_log_.push_back({node, std::move(cut)});
  return revealed;
}

Status NavigationSession::ReplayExpand(NavNodeId root, const EdgeCut& cut) {
  Result<std::vector<NavNodeId>> applied = active_->ApplyEdgeCut(root, cut);
  if (!applied.ok()) return applied.status();
  expand_log_.push_back({root, cut});
  return Status::OK();
}

Result<std::vector<NavNodeId>> NavigationSession::ExpandByLabel(
    const std::string& label) {
  NavNodeId node = FindVisibleByLabel(label);
  if (node == kInvalidNavNode) {
    return Status::NotFound("no visible concept labeled '" + label + "'");
  }
  return Expand(node);
}

Result<std::vector<CitationSummary>> NavigationSession::ShowResults(
    NavNodeId node, size_t retstart, size_t retmax) const {
  if (node < 0 || static_cast<size_t>(node) >= nav().size()) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!active_->IsVisible(node)) {
    return Status::FailedPrecondition(
        "SHOWRESULTS requires a visible concept");
  }
  const DynamicBitset& bits =
      active_->ComponentResults(active_->ComponentOf(node));
  std::vector<CitationId> ids;
  ids.reserve(bits.Count());
  for (size_t local : bits.ToIndexes()) {
    ids.push_back(nav().result().citation(local));
  }
  std::vector<RankedCitation> ranked =
      RankCitations(eutils_->store(), ids, query_);
  std::vector<CitationId> page;
  for (size_t i = retstart; i < ranked.size(); ++i) {
    if (retmax != 0 && page.size() >= retmax) break;
    page.push_back(ranked[i].id);
  }
  return eutils_->ESummary(page);
}

std::string NavigationSession::Render(int max_depth) const {
  return RenderAsciiRanked(*active_, *artifacts_->cost_model, max_depth);
}

bool NavigationSession::Backtrack() {
  if (!active_->Backtrack()) return false;
  BIONAV_CHECK(!expand_log_.empty());
  expand_log_.pop_back();
  return true;
}

size_t NavigationSession::MemoryBytes() const {
  size_t bytes = sizeof(*this) + query_.capacity() + active_->MemoryBytes();
  bytes += expand_log_.capacity() * sizeof(ExpandRecord);
  for (const ExpandRecord& rec : expand_log_) {
    bytes += rec.cut.cut_children.capacity() * sizeof(NavNodeId);
  }
  return bytes;
}

void NavigationSession::EnableTracing(size_t capacity) {
  ring_ = std::make_unique<SpanRing>(capacity);
}

NavNodeId NavigationSession::FindVisibleByLabel(
    const std::string& label) const {
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav().size()); ++id) {
    if (!active_->IsVisible(id)) continue;
    if (hierarchy_->label(nav().concept_of(id)) == label) return id;
  }
  return kInvalidNavNode;
}

}  // namespace bionav
