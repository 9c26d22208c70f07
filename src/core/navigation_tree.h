#ifndef BIONAV_CORE_NAVIGATION_TREE_H_
#define BIONAV_CORE_NAVIGATION_TREE_H_

#include <memory>
#include <vector>

#include "core/result_set.h"
#include "hierarchy/concept_hierarchy.h"
#include "medline/association_table.h"
#include "util/bitset.h"
#include "util/status.h"

namespace bionav {

/// Dense node index within one NavigationTree (distinct from ConceptId:
/// the navigation tree is the *maximum embedding* of the initial navigation
/// tree, so most hierarchy nodes do not appear in it).
using NavNodeId = int32_t;
inline constexpr NavNodeId kInvalidNavNode = -1;

/// One node of a serialized navigation tree, in pre-order: what the
/// artifact codec moves between shards. Child links are not carried — a
/// valid pre-order layout implies them (children in ascending id order).
struct SerializedNavNode {
  ConceptId concept_id = kInvalidConcept;
  NavNodeId parent = kInvalidNavNode;
  int64_t global_count = 0;
  /// Local result indexes of L(n), strictly ascending (bitset order).
  std::vector<uint32_t> result_indexes;
};

/// The paper's Navigation Tree (Definition 2): the maximum embedding of the
/// initial navigation tree such that no node except the root has an empty
/// results list. Construction attaches each result citation to its
/// associated concepts (Definition: Initial Navigation Tree) and keeps, in
/// one pre-order sweep of the hierarchy, exactly the concepts that received
/// a citation, each under its nearest kept ancestor — the result of
/// recursively splicing out empty nodes.
///
/// The tree is immutable and complete when a constructor returns: nodes
/// live in pre-order as parallel columns (concept, parent, |L(n)|, |LT(n)|,
/// L(n), pre-order interval end, attached prefix sums, subtree citation
/// sets and counts). Every const method is a pure read, so one instance
/// serves concurrent sessions (the QueryArtifactCache's sharing contract).
class NavigationTree {
 public:
  /// Builds the navigation tree for `result` using the citation->concepts
  /// associations. The hierarchy and the tables must outlive the tree.
  NavigationTree(const ConceptHierarchy& hierarchy,
                 const AssociationTable& associations,
                 std::shared_ptr<const ResultSet> result);

  /// Reconstructs a tree from pre-order node records captured on another
  /// shard (the FETCH_ARTIFACT path). The records are untrusted: every
  /// structural invariant (root first, parents preceding children in a
  /// valid pre-order nesting, concepts unique and inside the hierarchy,
  /// result indexes ascending and inside the result set) is validated
  /// BEFORE any column is built, so arbitrary bytes yield a typed kDataLoss
  /// instead of tripping a CHECK. The returned tree has the same columns as
  /// a locally built tree of the same shape.
  static Result<std::shared_ptr<NavigationTree>> FromSerializedNodes(
      const ConceptHierarchy& hierarchy,
      std::shared_ptr<const ResultSet> result,
      const std::vector<SerializedNavNode>& serialized);

  /// Pre-order node records describing this tree — the codec's source.
  std::vector<SerializedNavNode> ToSerializedNodes() const;

  NavigationTree(const NavigationTree&) = delete;
  NavigationTree& operator=(const NavigationTree&) = delete;
  NavigationTree(NavigationTree&&) = default;
  NavigationTree& operator=(NavigationTree&&) = default;

  size_t size() const { return concept_.size(); }

  static constexpr NavNodeId kRoot = 0;

  NavNodeId parent(NavNodeId id) const { return parent_[CheckedIndex(id)]; }
  ConceptId concept_of(NavNodeId id) const {
    return concept_[CheckedIndex(id)];
  }
  /// |L(n)|.
  int attached_count(NavNodeId id) const {
    return attached_[CheckedIndex(id)];
  }
  /// Corpus-wide citation count of the concept — the paper's |LT(n)|, the
  /// denominator of the EXPLORE probability.
  int64_t global_count(NavNodeId id) const {
    return global_[CheckedIndex(id)];
  }
  /// L(n), the citations (local result indexes) attached directly to the
  /// node.
  const DynamicBitset& results(NavNodeId id) const {
    return results_[CheckedIndex(id)];
  }

  /// First child, or kInvalidNavNode for a leaf: in pre-order a non-leaf's
  /// first child is the next id.
  NavNodeId first_child(NavNodeId id) const {
    return SubtreeEnd(id) > id + 1 ? id + 1 : kInvalidNavNode;
  }
  /// Next sibling, or kInvalidNavNode for a last child: a node's next
  /// sibling starts where its subtree ends, if still inside the parent's.
  NavNodeId next_sibling(NavNodeId id) const {
    NavNodeId p = parent(id);
    if (p == kInvalidNavNode) return kInvalidNavNode;
    NavNodeId end = SubtreeEnd(id);
    return end < SubtreeEnd(p) ? end : kInvalidNavNode;
  }

  /// Visits the children of `id` in ascending id (construction) order.
  template <typename Fn>
  void ForEachChild(NavNodeId id, Fn&& fn) const {
    for (NavNodeId c = id + 1, end = SubtreeEnd(id); c < end;
         c = subtree_end_[static_cast<size_t>(c)]) {
      fn(c);
    }
  }

  const ConceptHierarchy& hierarchy() const { return *hierarchy_; }
  const ResultSet& result() const { return *result_; }
  std::shared_ptr<const ResultSet> result_ptr() const { return result_; }

  /// Navigation-tree node of a concept, or kInvalidNavNode if the concept
  /// has no attached citations (was embedded away).
  NavNodeId NodeOfConcept(ConceptId concept_id) const;

  /// Distinct citations attached anywhere in the subtree rooted at `id`
  /// (the per-node count displayed by the static interface of Fig 1).
  const DynamicBitset& SubtreeResults(NavNodeId id) const {
    return subtree_results_[CheckedIndex(id)];
  }

  /// |SubtreeResults(id)|.
  int SubtreeDistinct(NavNodeId id) const {
    return subtree_distinct_[CheckedIndex(id)];
  }

  /// Kept so navbench/replay.cc, which times a separate freeze step, still
  /// compiles; the tree is complete when its constructor returns.
  void Freeze() const {}

  /// Heap bytes held by the tree: its columns (attached-citation and
  /// subtree bitsets included) and the concept index. Feeds the
  /// QueryArtifactCache byte budget.
  size_t MemoryFootprint() const;

  /// Sum of |L(n)| over the subtree of `id`, with duplicates — O(1) via
  /// pre-order prefix sums (the k-partition weight of an intact subtree).
  int64_t SubtreeAttachedTotal(NavNodeId id) const {
    NavNodeId end = SubtreeEnd(id);
    return attached_prefix_[static_cast<size_t>(end)] -
           attached_prefix_[static_cast<size_t>(id)];
  }

  /// Sum over all nodes of |L(n)| — the "Citations in Navigation Tree w/
  /// Duplicates" column of Table I.
  int64_t TotalAttachedWithDuplicates() const;

  /// Maximum number of nodes at any single depth of the navigation tree.
  int MaxWidth() const;

  /// Maximum depth (root = 0).
  int Height() const;

  /// Nodes are stored in pre-order, so the subtree of `id` occupies the
  /// contiguous id range [id, SubtreeEnd(id)).
  NavNodeId SubtreeEnd(NavNodeId id) const {
    return subtree_end_[CheckedIndex(id)];
  }

  /// True iff `a` is an ancestor of `b` or a == b (navigation-tree order).
  bool IsAncestorOrSelf(NavNodeId a, NavNodeId b) const {
    return a <= b && b < SubtreeEnd(a);
  }

  /// Depth of a node in the navigation tree (root = 0).
  int NodeDepth(NavNodeId id) const;

 private:
  /// Deserialization shell: binds the hierarchy/result, leaves the columns
  /// for FromSerializedNodes to fill.
  NavigationTree(const ConceptHierarchy* hierarchy,
                 std::shared_ptr<const ResultSet> result)
      : hierarchy_(hierarchy), result_(std::move(result)) {}

  size_t CheckedIndex(NavNodeId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), concept_.size());
    return static_cast<size_t>(id);
  }

  /// Reserves every per-node column for `n` nodes.
  void Reserve(size_t n);
  /// Appends the next node in pre-order; `parent` precedes it.
  void AppendNode(ConceptId concept_id, NavNodeId parent,
                  DynamicBitset results, int64_t global_count);
  /// Derives the concept index, pre-order interval ends, attached prefix
  /// sums and subtree citation sets from the appended nodes — the one
  /// finishing step of both constructors.
  void Finish();

  const ConceptHierarchy* hierarchy_;
  std::shared_ptr<const ResultSet> result_;
  // Per-node columns, indexed by NavNodeId (pre-order).
  std::vector<ConceptId> concept_;
  std::vector<NavNodeId> parent_;
  std::vector<int> attached_;
  std::vector<int64_t> global_;
  std::vector<DynamicBitset> results_;
  std::vector<NavNodeId> subtree_end_;
  std::vector<DynamicBitset> subtree_results_;
  std::vector<int> subtree_distinct_;
  std::vector<int64_t> attached_prefix_;    // Size nodes+1.
  std::vector<NavNodeId> concept_to_node_;  // Indexed by ConceptId.
};

}  // namespace bionav

#endif  // BIONAV_CORE_NAVIGATION_TREE_H_
