#include "core/active_tree.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"

namespace bionav {

ActiveTree::ActiveTree(const NavigationTree* nav) : nav_(nav) {
  BIONAV_CHECK(nav != nullptr);
  comp_of_.assign(nav->size(), 0);
  Component all;
  all.root = NavigationTree::kRoot;
  all.results = nav->SubtreeResults(NavigationTree::kRoot);
  all.distinct = nav->SubtreeDistinct(NavigationTree::kRoot);
  all.num_members = static_cast<int>(nav->size());
  components_.push_back(std::move(all));
}

std::vector<NavNodeId> ActiveTree::ComponentMembers(int comp) const {
  CheckComp(comp);
  std::vector<NavNodeId> out;
  out.reserve(static_cast<size_t>(components_[static_cast<size_t>(comp)].num_members));
  ForEachMember(comp, [&](NavNodeId id) { out.push_back(id); });
  return out;
}

Status ActiveTree::ValidateEdgeCut(NavNodeId root, const EdgeCut& cut) const {
  if (root < 0 || static_cast<size_t>(root) >= nav_->size()) {
    return Status::InvalidArgument("node id out of range");
  }
  int comp = ComponentOf(root);
  if (ComponentRoot(comp) != root) {
    return Status::FailedPrecondition("EXPAND must target a visible node");
  }
  if (cut.empty()) {
    return Status::InvalidArgument("EdgeCut must be non-empty");
  }
  if (ComponentSize(comp) < 2) {
    return Status::FailedPrecondition(
        "component is a singleton; nothing to expand");
  }
  for (NavNodeId u : cut.cut_children) {
    if (u < 0 || static_cast<size_t>(u) >= nav_->size()) {
      return Status::InvalidArgument("cut child out of range");
    }
    if (u == root) {
      return Status::InvalidArgument(
          "cut child equals the expanded component root");
    }
    if (ComponentOf(u) != comp) {
      return Status::InvalidArgument(
          "cut child is outside the expanded component");
    }
  }
  // Antichain check (Definition 3). Components are up-closed toward their
  // root, so navigation-tree ancestry is the right partial order here.
  for (size_t i = 0; i < cut.cut_children.size(); ++i) {
    for (size_t j = 0; j < cut.cut_children.size(); ++j) {
      if (i == j) continue;
      NavNodeId a = cut.cut_children[i];
      NavNodeId b = cut.cut_children[j];
      if (nav_->IsAncestorOrSelf(a, b)) {
        return Status::InvalidArgument(
            "invalid EdgeCut: two cut edges share a root-to-leaf path");
      }
    }
  }
  return Status::OK();
}

Result<std::vector<NavNodeId>> ActiveTree::ApplyEdgeCut(NavNodeId root,
                                                        const EdgeCut& cut) {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_engine_apply_cut_us",
      "ActiveTree EdgeCut application (component split + history)");
  TraceSpan span("apply_cut", hist);
  BIONAV_RETURN_IF_ERROR(ValidateEdgeCut(root, cut));
  const int comp = ComponentOf(root);

  HistoryEntry h;
  h.upper_comp = comp;
  // NOTE: components_ grows below, so access the upper component by index,
  // never through a cached reference.
  h.old_results = components_[static_cast<size_t>(comp)].results;
  h.old_distinct = components_[static_cast<size_t>(comp)].distinct;
  h.old_num_members = components_[static_cast<size_t>(comp)].num_members;

  // Intact components (the common case: EXPAND descending a fresh subtree)
  // contain every cut child's full navigation subtree, so each lower
  // component's citation set comes straight from the tree's subtree sets.
  const bool intact = ComponentIsIntact(comp);

  std::vector<NavNodeId> lower_roots;
  lower_roots.reserve(cut.size());
  for (NavNodeId u : cut.cut_children) {
    int new_comp = static_cast<int>(components_.size());
    Component lower;
    lower.root = u;
    NavNodeId end = nav_->SubtreeEnd(u);
    if (intact) {
      lower.results = nav_->SubtreeResults(u);
      lower.distinct = nav_->SubtreeDistinct(u);
      lower.num_members = end - u;
      for (NavNodeId id = u; id < end; ++id) {
        comp_of_[static_cast<size_t>(id)] = new_comp;
        h.reassigned.push_back(id);
      }
    } else {
      lower.results = nav_->result().MakeBitset();
      // Skip regions belonging to other components in O(1) each (see
      // ForEachMember for why the jump is sound).
      for (NavNodeId id = u; id < end;) {
        int c = comp_of_[static_cast<size_t>(id)];
        if (c != comp) {
          id = nav_->SubtreeEnd(components_[static_cast<size_t>(c)].root);
          continue;
        }
        comp_of_[static_cast<size_t>(id)] = new_comp;
        lower.results.UnionWith(nav_->results(id));
        lower.num_members++;
        h.reassigned.push_back(id);
        ++id;
      }
      lower.distinct = static_cast<int>(lower.results.Count());
    }
    components_[static_cast<size_t>(comp)].num_members -= lower.num_members;
    components_.push_back(std::move(lower));
    h.new_comps.push_back(new_comp);
    lower_roots.push_back(u);
  }

  // Recompute the (shrunken) upper component's citation set. Distinct
  // counts are not subtractive under duplicates, so re-aggregate members
  // (skipping foreign subtrees wholesale).
  Component& upper = components_[static_cast<size_t>(comp)];
  upper.results.Clear();
  ForEachMember(comp, [&](NavNodeId id) {
    upper.results.UnionWith(nav_->results(id));
  });
  upper.distinct = static_cast<int>(upper.results.Count());

  history_.push_back(std::move(h));
  return lower_roots;
}

bool ActiveTree::Backtrack() {
  if (history_.empty()) return false;
  HistoryEntry h = std::move(history_.back());
  history_.pop_back();

  Component& upper = components_[static_cast<size_t>(h.upper_comp)];
  for (NavNodeId id : h.reassigned) {
    comp_of_[static_cast<size_t>(id)] = h.upper_comp;
  }
  upper.results = std::move(h.old_results);
  upper.distinct = h.old_distinct;
  upper.num_members = h.old_num_members;

  // The undone lower components are the most recently created ones.
  for (auto it = h.new_comps.rbegin(); it != h.new_comps.rend(); ++it) {
    BIONAV_CHECK_EQ(*it, static_cast<int>(components_.size()) - 1)
        << "backtrack invariant violated";
    components_.pop_back();
  }
  return true;
}

ActiveTree::VisTree ActiveTree::Visualize() const {
  VisTree vis;
  // Visible nodes in pre-order; node ids are pre-order, components' roots
  // scanned in increasing id order give exactly that.
  std::vector<int> vis_index(nav_->size(), -1);
  struct StackEntry {
    NavNodeId node;
    int vis;
  };
  std::vector<StackEntry> stack;
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav_->size()); ++id) {
    if (!IsVisible(id)) continue;
    int comp = ComponentOf(id);
    VisNode vn;
    vn.node = id;
    vn.concept_id = nav_->concept_of(id);
    vn.distinct_count = ComponentDistinctCount(comp);
    vn.expandable = ComponentSize(comp) >= 2;
    while (!stack.empty() && !nav_->IsAncestorOrSelf(stack.back().node, id)) {
      stack.pop_back();
    }
    int my_index = static_cast<int>(vis.nodes.size());
    if (!stack.empty()) {
      vis.nodes[static_cast<size_t>(stack.back().vis)].children.push_back(
          my_index);
    }
    vis.nodes.push_back(std::move(vn));
    vis_index[static_cast<size_t>(id)] = my_index;
    stack.push_back({id, my_index});
  }
  BIONAV_CHECK(!vis.nodes.empty());
  BIONAV_CHECK_EQ(vis.nodes[0].node, NavigationTree::kRoot);
  return vis;
}

std::string ActiveTree::RenderAscii(int max_depth) const {
  VisTree vis = Visualize();
  std::ostringstream out;
  const ConceptHierarchy& h = nav_->hierarchy();

  struct Frame {
    int vis;
    int depth;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.depth > max_depth) continue;
    const VisNode& vn = vis.nodes[static_cast<size_t>(f.vis)];
    for (int i = 0; i < f.depth; ++i) out << "  ";
    out << h.label(vn.concept_id) << " (" << vn.distinct_count << ")";
    if (vn.expandable) out << " >>>";
    out << "\n";
    for (auto it = vn.children.rbegin(); it != vn.children.rend(); ++it) {
      stack.push_back({*it, f.depth + 1});
    }
  }
  return out.str();
}

size_t ActiveTree::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += comp_of_.capacity() * sizeof(int);
  bytes += components_.capacity() * sizeof(Component);
  for (const Component& c : components_) bytes += c.results.MemoryBytes();
  bytes += history_.capacity() * sizeof(HistoryEntry);
  for (const HistoryEntry& h : history_) {
    bytes += h.reassigned.capacity() * sizeof(NavNodeId);
    bytes += h.new_comps.capacity() * sizeof(int);
    bytes += h.old_results.MemoryBytes();
  }
  return bytes;
}

}  // namespace bionav
