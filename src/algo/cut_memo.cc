#include "algo/cut_memo.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace bionav {

namespace {

/// Charged per entry on top of its vectors (refcount block, list slot,
/// amortized hash node) — an estimate, like the rest of MemoryFootprint,
/// but keeps a memo of many small cuts from looking free.
constexpr size_t kEntryOverhead = 96;

/// Topmost nodes of subtree(root) outside the component `comp`, in
/// pre-order. Because components are connected and up-closed toward their
/// root, the first non-member met in pre-order is always the top of its
/// foreign region, so one skip-walk of O(members + holes) steps suffices.
std::vector<NavNodeId> ComponentHoles(const ActiveTree& active, int comp,
                                      NavNodeId root) {
  const NavigationTree& nav = active.nav();
  std::vector<NavNodeId> holes;
  NavNodeId end = nav.SubtreeEnd(root);
  for (NavNodeId id = root; id < end;) {
    if (active.ComponentOf(id) == comp) {
      ++id;
    } else {
      holes.push_back(id);
      id = nav.SubtreeEnd(id);
    }
  }
  return holes;
}

}  // namespace

size_t CutMemo::KeyHash::operator()(const Key& key) const {
  uint64_t growth = 0;
  std::memcpy(&growth, &key.options.bound_growth, sizeof(growth));
  uint64_t h = (static_cast<uint64_t>(static_cast<uint32_t>(key.root)) << 32) |
               key.members;
  h ^= (growth + static_cast<uint64_t>(key.options.max_partitions)) *
       0x9e3779b97f4a7c15ULL;
  return std::hash<uint64_t>()(h ^ (h >> 29));
}

CutMemo::Key CutMemo::KeyOf(const Options& options, const ActiveTree& active,
                            NavNodeId root) {
  return Key{root,
             static_cast<uint32_t>(
                 active.ComponentSize(active.ComponentOf(root))),
             options};
}

size_t CutMemo::EntryBytes(const Entry& entry) {
  return sizeof(Entry) + kEntryOverhead +
         (entry.holes.capacity() + entry.cut.cut_children.capacity()) *
             sizeof(NavNodeId);
}

CutMemo::Probe CutMemo::Find(const Options& options, const ActiveTree& active,
                             NavNodeId root) const {
  const int comp = active.ComponentOf(root);
  Probe probe;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(KeyOf(options, active, root));
  if (it == map_.end()) return probe;
  auto outside = [&](NavNodeId h) { return active.ComponentOf(h) != comp; };
  for (const std::shared_ptr<const Entry>& entry : it->second) {
    if (std::all_of(entry->holes.begin(), entry->holes.end(), outside)) {
      probe.hit = entry;
      return probe;
    }
  }
  probe.stale = true;
  return probe;
}

void CutMemo::Insert(const Options& options, const ActiveTree& active,
                     NavNodeId root, Entry entry, size_t max_entries) {
  const Key key = KeyOf(options, active, root);
  entry.holes = ComponentHoles(active, active.ComponentOf(root), root);
  const size_t bytes = EntryBytes(entry);
  auto shared = std::make_shared<const Entry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_ >= max_entries) ClearLocked();
  std::vector<std::shared_ptr<const Entry>>& list = map_[key];
  for (const std::shared_ptr<const Entry>& held : list) {
    if (held->holes == shared->holes) return;
  }
  list.push_back(std::move(shared));
  ++entries_;
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

size_t CutMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void CutMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void CutMemo::ClearLocked() {
  map_.clear();
  entries_ = 0;
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace bionav
