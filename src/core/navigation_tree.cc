#include "core/navigation_tree.h"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.h"

namespace bionav {

NavigationTree::NavigationTree(const ConceptHierarchy& hierarchy,
                               const AssociationTable& associations,
                               std::shared_ptr<const ResultSet> result)
    : hierarchy_(&hierarchy), result_(std::move(result)) {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_engine_tree_build_us",
      "Navigation-tree construction (maximum embedding) per query");
  TraceSpan span("tree_build", hist);
  BIONAV_CHECK(hierarchy.frozen());
  BIONAV_CHECK(result_ != nullptr);

  // Initial navigation tree: attach each result citation to the concepts it
  // is associated with. Only concepts that receive at least one citation
  // survive the maximum embedding, so we materialize bitsets per touched
  // concept only.
  std::unordered_map<ConceptId, DynamicBitset> attached;
  for (size_t i = 0; i < result_->size(); ++i) {
    CitationId cid = result_->citation(i);
    for (ConceptId c : associations.ConceptsOf(cid)) {
      auto [it, inserted] = attached.try_emplace(c, result_->MakeBitset());
      (void)inserted;
      it->second.Set(i);
    }
  }
  // The hierarchy root is kept regardless (Definition 2 excludes it from
  // the non-empty requirement to avoid creating a forest) but citations
  // associated directly with the root, if any, are honored. Every touched
  // concept becomes a node, so this bounds the node count.
  Reserve(attached.size() + 1);

  // Maximum embedding via a single pre-order sweep over the hierarchy:
  // every kept node's parent is its nearest kept ancestor. This is exactly
  // the result of recursively splicing out empty nodes.
  struct StackEntry {
    ConceptId concept_id;
    NavNodeId node;
  };
  std::vector<StackEntry> stack;

  auto add_node = [&](ConceptId c, NavNodeId parent) {
    NavNodeId id = static_cast<NavNodeId>(size());
    auto it = attached.find(c);
    AppendNode(c, parent,
               it != attached.end() ? std::move(it->second)
                                    : result_->MakeBitset(),
               associations.GlobalCount(c));
    return id;
  };

  NavNodeId root = add_node(ConceptHierarchy::kRoot, kInvalidNavNode);
  BIONAV_CHECK_EQ(root, kRoot);
  stack.push_back({ConceptHierarchy::kRoot, root});

  hierarchy.PreOrder([&](ConceptId c) {
    if (c == ConceptHierarchy::kRoot) return;
    auto it = attached.find(c);
    if (it == attached.end() || !it->second.Any()) return;
    while (!stack.empty() &&
           !hierarchy.IsAncestorOrSelf(stack.back().concept_id, c)) {
      stack.pop_back();
    }
    BIONAV_CHECK(!stack.empty());
    NavNodeId id = add_node(c, stack.back().node);
    stack.push_back({c, id});
  });
  Finish();
}

void NavigationTree::Reserve(size_t n) {
  concept_.reserve(n);
  parent_.reserve(n);
  attached_.reserve(n);
  global_.reserve(n);
  results_.reserve(n);
}

void NavigationTree::AppendNode(ConceptId concept_id, NavNodeId parent,
                                DynamicBitset results, int64_t global_count) {
  concept_.push_back(concept_id);
  parent_.push_back(parent);
  attached_.push_back(static_cast<int>(results.Count()));
  global_.push_back(global_count);
  results_.push_back(std::move(results));
}

void NavigationTree::Finish() {
  const size_t n = size();
  concept_to_node_.assign(hierarchy_->size(), kInvalidNavNode);
  for (size_t i = 0; i < n; ++i) {
    concept_to_node_[static_cast<size_t>(concept_[i])] =
        static_cast<NavNodeId>(i);
  }
  // Nodes are in pre-order, so each node's descendants follow it: one
  // reverse sweep folds every node into its parent's interval end and
  // subtree citation set after its own subtree is complete.
  subtree_end_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    subtree_end_[i] = static_cast<NavNodeId>(i + 1);
  }
  subtree_results_ = results_;
  for (size_t i = n; i-- > 1;) {
    size_t p = static_cast<size_t>(parent_[i]);
    subtree_end_[p] = std::max(subtree_end_[p], subtree_end_[i]);
    subtree_results_[p].UnionWith(subtree_results_[i]);
  }
  subtree_distinct_.resize(n);
  attached_prefix_.resize(n + 1);
  attached_prefix_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    subtree_distinct_[i] = static_cast<int>(subtree_results_[i].Count());
    attached_prefix_[i + 1] = attached_prefix_[i] + attached_[i];
  }
}

std::vector<SerializedNavNode> NavigationTree::ToSerializedNodes() const {
  std::vector<SerializedNavNode> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    SerializedNavNode rec;
    rec.concept_id = concept_[i];
    rec.parent = parent_[i];
    rec.global_count = global_[i];
    std::vector<size_t> idx = results_[i].ToIndexes();
    rec.result_indexes.reserve(idx.size());
    for (size_t k : idx) rec.result_indexes.push_back(static_cast<uint32_t>(k));
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::shared_ptr<NavigationTree>> NavigationTree::FromSerializedNodes(
    const ConceptHierarchy& hierarchy, std::shared_ptr<const ResultSet> result,
    const std::vector<SerializedNavNode>& serialized) {
  auto bad = [](const std::string& what) {
    return Status::DataLoss("serialized navigation tree " + what);
  };
  if (result == nullptr) return bad("has no result set");
  if (serialized.empty()) return bad("is empty");
  if (serialized[0].parent != kInvalidNavNode ||
      serialized[0].concept_id != ConceptHierarchy::kRoot) {
    return bad("does not start at the hierarchy root");
  }
  // Structural validation happens up front, against the raw records: the
  // construction invariants below are enforced with CHECKs elsewhere in
  // this class, so anything not verified here could turn wire corruption
  // into a crash instead of a typed decode error.
  std::vector<bool> concept_seen(hierarchy.size(), false);
  // A valid pre-order layout means each node's parent is on the ancestor
  // path of the previous node (the "open" chain of unfinished subtrees).
  std::vector<NavNodeId> open;
  open.reserve(64);
  for (size_t i = 0; i < serialized.size(); ++i) {
    const SerializedNavNode& rec = serialized[i];
    if (rec.concept_id < 0 ||
        static_cast<size_t>(rec.concept_id) >= hierarchy.size()) {
      return bad("names concept " + std::to_string(rec.concept_id) +
                 " outside the hierarchy");
    }
    if (concept_seen[static_cast<size_t>(rec.concept_id)]) {
      return bad("repeats concept " + std::to_string(rec.concept_id));
    }
    concept_seen[static_cast<size_t>(rec.concept_id)] = true;
    if (rec.global_count < 0) return bad("has a negative global count");
    uint32_t prev = 0;
    for (size_t k = 0; k < rec.result_indexes.size(); ++k) {
      uint32_t idx = rec.result_indexes[k];
      if (idx >= result->size()) return bad("result index out of range");
      if (k > 0 && idx <= prev) return bad("result indexes not ascending");
      prev = idx;
    }
    if (i == 0) {
      open.push_back(0);
      continue;
    }
    if (rec.parent < 0 || static_cast<size_t>(rec.parent) >= i) {
      return bad("node " + std::to_string(i) + " has parent " +
                 std::to_string(rec.parent) + " not preceding it");
    }
    // Non-root nodes of a maximum embedding carry at least one citation,
    // and their concept nests under the parent's in the hierarchy.
    if (rec.result_indexes.empty()) {
      return bad("has an empty non-root node");
    }
    if (!hierarchy.IsAncestorOrSelf(serialized[static_cast<size_t>(rec.parent)]
                                        .concept_id,
                                    rec.concept_id)) {
      return bad("breaks hierarchy ancestry at node " + std::to_string(i));
    }
    while (!open.empty() && open.back() != rec.parent) open.pop_back();
    if (open.empty()) {
      return bad("is not a pre-order layout (parent " +
                 std::to_string(rec.parent) + " closed before node " +
                 std::to_string(i) + ")");
    }
    open.push_back(static_cast<NavNodeId>(i));
  }

  std::shared_ptr<NavigationTree> tree(
      new NavigationTree(&hierarchy, std::move(result)));
  tree->Reserve(serialized.size());
  for (const SerializedNavNode& rec : serialized) {
    DynamicBitset results = tree->result_->MakeBitset();
    for (uint32_t idx : rec.result_indexes) results.Set(idx);
    tree->AppendNode(rec.concept_id, rec.parent, std::move(results),
                     rec.global_count);
  }
  tree->Finish();
  return tree;
}

int NavigationTree::NodeDepth(NavNodeId id) const {
  int d = 0;
  for (NavNodeId u = parent(id); u != kInvalidNavNode; u = parent(u)) {
    ++d;
  }
  return d;
}

NavNodeId NavigationTree::NodeOfConcept(ConceptId concept_id) const {
  BIONAV_CHECK_GE(concept_id, 0);
  BIONAV_CHECK_LT(static_cast<size_t>(concept_id), concept_to_node_.size());
  return concept_to_node_[static_cast<size_t>(concept_id)];
}

size_t NavigationTree::MemoryFootprint() const {
  size_t bytes = sizeof(NavigationTree);
  bytes += (concept_.capacity() + concept_to_node_.capacity()) *
           sizeof(ConceptId);
  bytes += (parent_.capacity() + subtree_end_.capacity()) * sizeof(NavNodeId);
  bytes += (attached_.capacity() + subtree_distinct_.capacity()) * sizeof(int);
  bytes += (global_.capacity() + attached_prefix_.capacity()) * sizeof(int64_t);
  bytes += (results_.capacity() + subtree_results_.capacity()) *
           sizeof(DynamicBitset);
  for (const DynamicBitset& b : results_) bytes += b.MemoryBytes();
  for (const DynamicBitset& b : subtree_results_) bytes += b.MemoryBytes();
  return bytes;
}

int64_t NavigationTree::TotalAttachedWithDuplicates() const {
  return attached_prefix_.back();
}

int NavigationTree::MaxWidth() const {
  std::vector<int> depth(size(), 0);
  std::vector<int> width;
  for (size_t i = 1; i < size(); ++i) {
    // Nodes are in pre-order, so parents precede children.
    depth[i] = depth[static_cast<size_t>(parent_[i])] + 1;
  }
  for (size_t i = 0; i < size(); ++i) {
    if (static_cast<size_t>(depth[i]) >= width.size()) {
      width.resize(static_cast<size_t>(depth[i]) + 1, 0);
    }
    width[static_cast<size_t>(depth[i])]++;
  }
  return width.empty() ? 0 : *std::max_element(width.begin(), width.end());
}

int NavigationTree::Height() const {
  std::vector<int> depth(size(), 0);
  int h = 0;
  for (size_t i = 1; i < size(); ++i) {
    depth[i] = depth[static_cast<size_t>(parent_[i])] + 1;
    h = std::max(h, depth[i]);
  }
  return h;
}

}  // namespace bionav
