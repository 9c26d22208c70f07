#include "algo/greedy_edgecut.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/timer.h"

namespace bionav {

namespace {

/// Per-subtree aggregates within one component, cached across moves.
struct SubtreeStats {
  int distinct = 0;
  double weight = 0;
};

class GreedyContext {
 public:
  GreedyContext(const ActiveTree& active, const CostModel& cost_model,
                NavNodeId root)
      : active_(active),
        cost_model_(cost_model),
        nav_(active.nav()),
        comp_(active.ComponentOf(root)),
        root_(root) {
    comp_distinct_ = active.ComponentDistinctCount(comp_);
    comp_weight_ = 0;
    for (NavNodeId m : active.ComponentMembers(comp_)) {
      comp_weight_ += cost_model.NodeExploreWeight(m);
    }
  }

  /// Aggregates of the full in-component subtree of `u`.
  const SubtreeStats& Stats(NavNodeId u) {
    auto it = cache_.find(u);
    if (it != cache_.end()) return it->second;
    SubtreeStats s;
    DynamicBitset acc = nav_.result().MakeBitset();
    NavNodeId end = nav_.SubtreeEnd(u);
    for (NavNodeId id = u; id < end; ++id) {
      if (active_.ComponentOf(id) != comp_) continue;
      acc.UnionWith(nav_.results(id));
      s.weight += cost_model_.NodeExploreWeight(id);
    }
    s.distinct = static_cast<int>(acc.Count());
    return cache_.emplace(u, s).first->second;
  }

  /// Myopic expected cost of a cut: EXPAND action + per-revealed-node cost
  /// + conditional-explore-probability-weighted SHOWRESULTS of each
  /// resulting component (no deeper lookahead). Upper-component distinct
  /// count is approximated by the component total (cheap upper bound;
  /// consistent across candidate cuts).
  double Evaluate(const std::vector<NavNodeId>& cut) {
    const CostModelParams& p = cost_model_.params();
    auto cond = [&](double w) {
      return comp_weight_ > 0 ? w / comp_weight_ : 0.0;
    };
    double value = p.expand_cost;
    double lower_weight = 0;
    for (NavNodeId u : cut) {
      const SubtreeStats& s = Stats(u);
      value += p.reveal_cost + cond(s.weight) * p.show_cost * s.distinct;
      lower_weight += s.weight;
    }
    double upper_weight = comp_weight_ - lower_weight;
    value += cond(upper_weight) * p.show_cost *
             static_cast<double>(comp_distinct_);
    return value;
  }

  /// Children of `u` inside the component.
  std::vector<NavNodeId> ChildrenInComponent(NavNodeId u) const {
    std::vector<NavNodeId> out;
    nav_.ForEachChild(u, [&](NavNodeId c) {
      if (active_.ComponentOf(c) == comp_) out.push_back(c);
    });
    return out;
  }

  NavNodeId root() const { return root_; }

 private:
  const ActiveTree& active_;
  const CostModel& cost_model_;
  const NavigationTree& nav_;
  int comp_;
  NavNodeId root_;
  int comp_distinct_;
  double comp_weight_;
  std::unordered_map<NavNodeId, SubtreeStats> cache_;
};

}  // namespace

GreedyEdgeCutStrategy::GreedyEdgeCutStrategy(const CostModel* cost_model,
                                             int max_iterations)
    : cost_model_(cost_model), max_iterations_(max_iterations) {
  BIONAV_CHECK(cost_model != nullptr);
  BIONAV_CHECK_GE(max_iterations, 1);
}

EdgeCut GreedyEdgeCutStrategy::ChooseEdgeCut(const ActiveTree& active,
                                             NavNodeId root) {
  Timer timer;
  last_stats_ = ExpandStats{};
  GreedyContext ctx(active, *cost_model_, root);

  std::vector<NavNodeId> cut = ctx.ChildrenInComponent(root);
  BIONAV_CHECK(!cut.empty());
  double current = ctx.Evaluate(cut);

  for (int iter = 0; iter < max_iterations_; ++iter) {
    double best_value = current;
    std::vector<NavNodeId> best_cut;

    for (size_t i = 0; i < cut.size(); ++i) {
      // Move A: push cut edge i one level down.
      std::vector<NavNodeId> down_children =
          ctx.ChildrenInComponent(cut[i]);
      if (!down_children.empty()) {
        std::vector<NavNodeId> candidate = cut;
        candidate.erase(candidate.begin() + static_cast<long>(i));
        candidate.insert(candidate.end(), down_children.begin(),
                         down_children.end());
        double v = ctx.Evaluate(candidate);
        if (v < best_value) {
          best_value = v;
          best_cut = std::move(candidate);
        }
      }
      // Move B: retract cut edge i (keep the cut non-empty).
      if (cut.size() >= 2) {
        std::vector<NavNodeId> candidate = cut;
        candidate.erase(candidate.begin() + static_cast<long>(i));
        double v = ctx.Evaluate(candidate);
        if (v < best_value) {
          best_value = v;
          best_cut = std::move(candidate);
        }
      }
    }

    if (best_cut.empty()) break;  // Local optimum.
    cut = std::move(best_cut);
    current = best_value;
  }

  std::sort(cut.begin(), cut.end());
  EdgeCut result;
  result.cut_children = std::move(cut);
  last_stats_.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace bionav
