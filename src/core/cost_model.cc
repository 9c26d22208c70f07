#include "core/cost_model.h"

#include <cmath>

namespace bionav {

CostModel::CostModel(const NavigationTree* nav, CostModelParams params)
    : nav_(nav), params_(params) {
  BIONAV_CHECK(nav != nullptr);
  BIONAV_CHECK_GE(params_.expand_lower_threshold, 0);
  BIONAV_CHECK_GE(params_.expand_upper_threshold,
                  params_.expand_lower_threshold);
  weights_.resize(nav->size());
  for (size_t i = 0; i < nav->size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    int attached_count = nav->attached_count(id);
    int64_t global_count = nav->global_count(id);
    double attached = static_cast<double>(attached_count);
    // |LT(n)| >= |L(n)| always holds for real association data; synthetic
    // or hand-built fixtures may omit global counts, so guard the ratio.
    double global = static_cast<double>(
        global_count > 0 ? global_count : attached_count);
    switch (params_.explore_weight_mode) {
      case ExploreWeightMode::kSquaredOverGlobal:
        weights_[i] = global > 0 ? attached * attached / global : 0.0;
        break;
      case ExploreWeightMode::kCount:
        weights_[i] = attached;
        break;
      case ExploreWeightMode::kSelectivity:
        weights_[i] = global > 0 ? attached / global : 0.0;
        break;
    }
    normalization_ += weights_[i];
  }
}

double CostModel::MemberEntropy(int distinct_count,
                                const std::vector<int>& member_counts) {
  if (distinct_count <= 0) return 0;
  double total = static_cast<double>(distinct_count);
  double entropy = 0;
  for (int c : member_counts) {
    if (c <= 0) continue;
    double p = static_cast<double>(c) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double CostModel::ExpandProbability(
    int distinct_count, const std::vector<int>& member_counts) const {
  if (member_counts.size() <= 1) return 0;  // Singleton component or leaf.
  if (distinct_count > params_.expand_upper_threshold) return 1;
  if (distinct_count < params_.expand_lower_threshold) return 0;
  double max_entropy = std::log2(static_cast<double>(member_counts.size()));
  if (max_entropy <= 0) return 0;
  double p = MemberEntropy(distinct_count, member_counts) / max_entropy;
  return p < 0 ? 0 : (p > 1 ? 1 : p);
}

}  // namespace bionav
