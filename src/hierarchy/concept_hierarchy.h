#ifndef BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_
#define BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hierarchy/tree_number.h"
#include "util/status.h"

namespace bionav {

/// Dense identifier of a concept node within one ConceptHierarchy.
using ConceptId = int32_t;
inline constexpr ConceptId kInvalidConcept = -1;

/// A concept hierarchy in the sense of the paper's Definition 1: a labeled
/// tree of concepts, rooted at node 0, where a child's label is more
/// specific than its parent's. This is the substrate for MeSH but carries no
/// biomedical assumptions — the catalog example reuses it for product
/// categories.
///
/// Usage: add nodes with AddNode (parent must already exist), then call
/// Freeze() once. Freeze computes depths, Euler-tour intervals (for O(1)
/// ancestor tests) and canonical MeSH-style tree numbers, and seals the
/// structure. All query methods require a frozen hierarchy.
class ConceptHierarchy {
 public:
  ConceptHierarchy();

  ConceptHierarchy(const ConceptHierarchy&) = delete;
  ConceptHierarchy& operator=(const ConceptHierarchy&) = delete;
  ConceptHierarchy(ConceptHierarchy&&) = default;
  ConceptHierarchy& operator=(ConceptHierarchy&&) = default;

  /// Identifier of the root node ("MeSH").
  static constexpr ConceptId kRoot = 0;

  /// Adds a concept under `parent` and returns its id. The hierarchy must
  /// not be frozen. Labels need not be unique globally, but lookups by label
  /// return the first node added with that label.
  ConceptId AddNode(ConceptId parent, std::string label);

  /// Seals the tree: computes depth, pre/post order, and tree numbers.
  void Freeze();

  /// Replaces a node's display label (allowed after Freeze — labels carry
  /// no structural meaning). Label lookups are updated.
  void RenameNode(ConceptId id, std::string label);

  bool frozen() const { return frozen_; }

  /// Number of nodes, including the root.
  size_t size() const { return labels_.size(); }

  ConceptId parent(ConceptId id) const { return parents_[CheckId(id)]; }
  const std::vector<ConceptId>& children(ConceptId id) const {
    return children_[CheckId(id)];
  }
  const std::string& label(ConceptId id) const { return labels_[CheckId(id)]; }

  /// Depth of the node; the root has depth 0. Requires frozen().
  int depth(ConceptId id) const;

  /// Canonical tree number assigned at Freeze(). The root's is empty.
  const TreeNumber& tree_number(ConceptId id) const;

  /// True iff `a` is an ancestor of `b` or a == b. Requires frozen(). O(1).
  bool IsAncestorOrSelf(ConceptId a, ConceptId b) const;

  /// Pre-order rank assigned at Freeze(): the root is 0 and ranks ascend
  /// in the order PreOrder() visits nodes, so sorting any concept set by
  /// rank lists it in hierarchy pre-order. Requires frozen(). O(1).
  int PreRank(ConceptId id) const {
    BIONAV_CHECK(frozen_);
    return pre_[static_cast<size_t>(CheckId(id))];
  }

  /// First node with the given label, or kInvalidConcept.
  ConceptId FindByLabel(std::string_view label) const;

  /// Node with the given tree-number string, or kInvalidConcept.
  /// Requires frozen().
  ConceptId FindByTreeNumber(const std::string& tree_number) const;

  /// Maximum node depth. Requires frozen().
  int height() const { return height_; }

  /// Number of nodes at each depth (index = depth). Requires frozen().
  const std::vector<int>& LevelWidths() const;

  /// Visits nodes in pre-order (parents before children).
  void PreOrder(const std::function<void(ConceptId)>& visit) const;

  /// Visits nodes in post-order (children before parents).
  void PostOrder(const std::function<void(ConceptId)>& visit) const;

  /// All node ids on the path root -> id, inclusive.
  std::vector<ConceptId> PathFromRoot(ConceptId id) const;

  /// All descendant ids of `id` including itself, in pre-order.
  std::vector<ConceptId> Subtree(ConceptId id) const;

 private:
  ConceptId CheckId(ConceptId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), labels_.size());
    return id;
  }

  bool frozen_ = false;
  std::vector<std::string> labels_;
  std::vector<ConceptId> parents_;
  std::vector<std::vector<ConceptId>> children_;

  // Computed at Freeze().
  std::vector<int> depths_;
  std::vector<int> pre_;        // Pre-order entry index (PreRank).
  std::vector<int> post_;       // Pre-order exit index (subtree interval end).
  std::vector<TreeNumber> tree_numbers_;
  std::vector<int> level_widths_;
  int height_ = 0;
  std::unordered_map<std::string, ConceptId> by_label_;
  std::unordered_map<std::string, ConceptId> by_tree_number_;
};

}  // namespace bionav

#endif  // BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_
