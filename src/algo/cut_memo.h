#ifndef BIONAV_ALGO_CUT_MEMO_H_
#define BIONAV_ALGO_CUT_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/active_tree.h"

namespace bionav {

/// The cross-EXPAND memo of Heuristic-ReducedOpt: cuts already chosen,
/// keyed by component shape, replayed bit-identically whenever the exact
/// component recurs. ChooseEdgeCut is a pure function of (navigation tree,
/// cost model, strategy options, component member set), so one memo per
/// query artifact serves every session of that query — a session just
/// restored from spill included. Entries are never invalidated: each one
/// self-validates against the caller's own ActiveTree at lookup (see
/// Find), so an entry stale for one session stays for the others.
///
/// A component is identified up to byte-identity by (root, member count,
/// holes): its members are exactly subtree(root) minus the subtrees of the
/// holes (the topmost non-member nodes). Entries with the same (root,
/// count) but different holes coexist in one short list.
///
/// Thread-safe: one internal mutex guards the table; entries are immutable
/// once inserted and handed out refcounted. The byte count is an atomic so
/// QueryArtifacts::MemoryFootprint reads it without the lock.
class CutMemo {
 public:
  /// The strategy options a cut depends on. Entries made under different
  /// options never answer each other.
  struct Options {
    int max_partitions = 0;
    double bound_growth = 0;
    bool operator==(const Options&) const = default;
  };

  struct Entry {
    /// Topmost nodes of subtree(root) that were NOT component members when
    /// the cut was computed (pre-order, disjoint subtrees). Empty = the
    /// component was the full navigation subtree of its root.
    std::vector<NavNodeId> holes;
    /// The memoized answer, byte-identical to a fresh recompute.
    EdgeCut cut;
    /// Stats of the original computation, replayed into ExpandStats.
    int reduced_tree_size = 0;
    int partition_rounds = 0;
  };

  /// What a lookup found under the component's key.
  struct Probe {
    /// The entry valid for the caller's component, or null.
    std::shared_ptr<const Entry> hit;
    /// True when the key held entries but none was valid for the caller.
    bool stale = false;
  };

  CutMemo() = default;
  CutMemo(const CutMemo&) = delete;
  CutMemo& operator=(const CutMemo&) = delete;

  /// Looks up the component of `root` in `active`. An entry answers iff
  /// every recorded hole lies outside the component: holes outside imply
  /// members(now) is a subset of members(then) (a member inside a hole's
  /// subtree would pull the hole into the component, since components are
  /// up-closed toward their root), and the equal counts in the key force
  /// set equality. O(holes) per entry tried.
  Probe Find(const Options& options, const ActiveTree& active,
             NavNodeId root) const;

  /// Records `entry` for the component of `root` in `active`, with its
  /// holes taken from `active` (whatever `entry.holes` held is replaced),
  /// unless an entry with the same holes is already there (another session
  /// got there first). Past `max_entries` the memo is cleared first — it is
  /// a pure cache, so dropping entries only costs recomputes.
  void Insert(const Options& options, const ActiveTree& active,
              NavNodeId root, Entry entry, size_t max_entries);

  /// Entries held (all keys, all lists).
  size_t size() const;

  /// Estimated heap bytes of the held entries; folded into
  /// QueryArtifacts::MemoryFootprint so the cache budget sees the memo.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  void Clear();

 private:
  struct Key {
    NavNodeId root;
    uint32_t members;
    Options options;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  static Key KeyOf(const Options& options, const ActiveTree& active,
                   NavNodeId root);
  static size_t EntryBytes(const Entry& entry);
  void ClearLocked();

  mutable std::mutex mu_;
  std::unordered_map<Key, std::vector<std::shared_ptr<const Entry>>, KeyHash>
      map_;
  size_t entries_ = 0;
  std::atomic<size_t> bytes_{0};
};

}  // namespace bionav

#endif  // BIONAV_ALGO_CUT_MEMO_H_
