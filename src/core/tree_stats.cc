#include "core/tree_stats.h"

#include <algorithm>
#include <vector>

namespace bionav {

NavigationTreeStats ComputeTreeStats(const NavigationTree& nav) {
  NavigationTreeStats stats;
  stats.result_citations = static_cast<int>(nav.result().size());
  stats.tree_size = static_cast<int>(nav.size());

  std::vector<int> depth(nav.size(), 0);
  std::vector<int> width;
  for (size_t i = 0; i < nav.size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    if (i > 0) {
      depth[i] = depth[static_cast<size_t>(nav.parent(id))] + 1;
    }
    if (static_cast<size_t>(depth[i]) >= width.size()) {
      width.resize(static_cast<size_t>(depth[i]) + 1, 0);
    }
    width[static_cast<size_t>(depth[i])]++;
    stats.height = std::max(stats.height, depth[i]);
    stats.attachments_with_duplicates += nav.attached_count(id);
    int fanout = 0;
    nav.ForEachChild(id, [&](NavNodeId) { ++fanout; });
    stats.max_fanout = std::max(stats.max_fanout, fanout);
  }
  stats.max_width =
      width.empty() ? 0 : *std::max_element(width.begin(), width.end());
  stats.mean_attachments_per_node =
      stats.tree_size > 0
          ? static_cast<double>(stats.attachments_with_duplicates) /
                static_cast<double>(stats.tree_size)
          : 0;
  return stats;
}

TargetConceptStats ComputeTargetStats(const NavigationTree& nav,
                                      ConceptId target) {
  TargetConceptStats stats;
  stats.mesh_level = nav.hierarchy().depth(target);
  NavNodeId node = nav.NodeOfConcept(target);
  stats.in_navigation_tree = node != kInvalidNavNode;
  if (stats.in_navigation_tree) {
    stats.attached_in_result = nav.attached_count(node);
    stats.global_count = nav.global_count(node);
    stats.selectivity =
        stats.global_count > 0
            ? static_cast<double>(stats.attached_in_result) /
                  static_cast<double>(stats.global_count)
            : 0;
  }
  return stats;
}

}  // namespace bionav
