#include "router/hash_ring.h"

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <unordered_set>

namespace bionav {

namespace {

/// splitmix64 finalizer: full-avalanche mix of a 64-bit state.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes, finalized through splitmix64 so short keys
/// (query words, session tokens) still spread across the whole ring.
uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

Status CheckRingSize(int64_t vnodes, size_t backends) {
  if (vnodes < 1 || vnodes > kMaxRingVnodes) {
    return Status::InvalidArgument(
        "ring vnodes " + std::to_string(vnodes) + " outside 1-" +
        std::to_string(kMaxRingVnodes));
  }
  if (backends > kMaxRingPoints / static_cast<size_t>(vnodes)) {
    return Status::InvalidArgument(
        "ring of " + std::to_string(vnodes) + " vnodes x " +
        std::to_string(backends) + " backends exceeds " +
        std::to_string(kMaxRingPoints) + " points");
  }
  return Status::OK();
}

HashRing::HashRing(HashRingOptions options) : options_(options) {
  options_.vnodes = static_cast<int>(std::clamp<int64_t>(
      options_.vnodes, 1, kMaxRingVnodes));
}

uint64_t HashRing::HashKey(std::string_view key) const {
  return HashBytes(key, options_.seed);
}

void HashRing::InsertPoints(uint32_t backend_index) {
  const std::string& id = backends_[backend_index];
  for (int v = 0; v < options_.vnodes; ++v) {
    std::string vnode_key = id;
    vnode_key.push_back('#');
    vnode_key += std::to_string(v);
    points_.push_back(Point{HashBytes(vnode_key, options_.seed),
                            backend_index});
  }
}

bool HashRing::AddBackend(const std::string& id) {
  return AddBackends({id}) == 1;
}

size_t HashRing::AddBackends(const std::vector<std::string>& ids) {
  // Reserved, so the views of backends_ stay valid while it grows.
  backends_.reserve(backends_.size() + ids.size());
  std::unordered_set<std::string_view> present(backends_.begin(),
                                               backends_.end());
  size_t added = 0;
  for (const std::string& id : ids) {
    if (!present.insert(id).second ||
        !CheckRingSize(options_.vnodes, backends_.size() + 1).ok()) {
      continue;
    }
    backends_.push_back(id);
    InsertPoints(static_cast<uint32_t>(backends_.size() - 1));
    ++added;
  }
  std::sort(points_.begin(), points_.end());
  return added;
}

bool HashRing::RemoveBackend(const std::string& id) {
  size_t index = backends_.size();
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i] == id) {
      index = i;
      break;
    }
  }
  if (index == backends_.size()) return false;
  backends_.erase(backends_.begin() + static_cast<ptrdiff_t>(index));
  // Point positions depend only on (seed, id, vnode) — never on backend
  // order — so rebuilding after a membership change reproduces the exact
  // surviving points and ownership of every other backend is untouched.
  points_.clear();
  points_.reserve(backends_.size() * static_cast<size_t>(options_.vnodes));
  for (uint32_t i = 0; i < backends_.size(); ++i) InsertPoints(i);
  std::sort(points_.begin(), points_.end());
  return true;
}

size_t HashRing::LowerBound(uint64_t position) const {
  size_t lo = 0, hi = points_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (points_[mid].position < position) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == points_.size() ? 0 : lo;  // Wrap past the last point.
}

const std::string& HashRing::OwnerOf(std::string_view key) const {
  static const std::string kEmpty;
  if (points_.empty()) return kEmpty;
  return backends_[points_[LowerBound(HashKey(key))].backend];
}

std::vector<std::string> HashRing::PreferenceOrder(
    std::string_view key, size_t max_backends) const {
  std::vector<std::string> order;
  if (points_.empty()) return order;
  size_t want = max_backends == 0
                    ? backends_.size()
                    : std::min(max_backends, backends_.size());
  order.reserve(want);
  std::vector<bool> seen(backends_.size(), false);
  size_t start = LowerBound(HashKey(key));
  for (size_t walked = 0; walked < points_.size() && order.size() < want;
       ++walked) {
    uint32_t backend = points_[(start + walked) % points_.size()].backend;
    if (seen[backend]) continue;
    seen[backend] = true;
    order.push_back(backends_[backend]);
  }
  return order;
}

}  // namespace bionav
