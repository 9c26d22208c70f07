#ifndef BIONAV_ROUTER_HASH_RING_H_
#define BIONAV_ROUTER_HASH_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace bionav {

/// Ring-size cap. A ring holds vnodes x backends points, and its geometry
/// can come from outside the process (a TOPOLOGY reply, a peers file,
/// `bionav_route --vnodes`), so both factors are bounded: at most
/// kMaxRingVnodes points per backend and kMaxRingPoints points in all
/// (4 MiB of 16-byte points; 64 backends at the per-backend cap).
inline constexpr int64_t kMaxRingVnodes = 4096;
inline constexpr size_t kMaxRingPoints = size_t{1} << 18;

/// The one check of a ring geometry: kInvalidArgument unless
/// 1 <= vnodes <= kMaxRingVnodes and vnodes x backends <= kMaxRingPoints.
Status CheckRingSize(int64_t vnodes, size_t backends);

struct HashRingOptions {
  /// Virtual nodes per backend. More vnodes flatten the load distribution
  /// (stddev shrinks ~1/sqrt(vnodes)) at the cost of a larger sorted point
  /// table; 128 keeps the 16-shard max/min load ratio under ~1.6 while the
  /// table stays a few KB. Clamped to [1, kMaxRingVnodes].
  int vnodes = 128;
  /// Seeds every placement hash. Two rings with the same seed and backend
  /// set produce identical ownership — routers in a fleet agree on shard
  /// placement without coordination.
  uint64_t seed = 0x62696f6e61763237ULL;  // "bionav27"
};

/// A consistent-hash ring with virtual nodes — the placement function of
/// the sharded serving tier. Backends are string identities ("host:port");
/// each contributes `vnodes` seeded points on a 64-bit ring, and a key is
/// owned by the backend of the first point at or clockwise after the key's
/// hash. The classic guarantee follows from per-backend point placement:
/// adding a backend only moves keys *onto* the new backend (everything
/// else keeps its owner), and removing one only moves *its* keys — about
/// 1/N of the keyspace churns per membership change instead of nearly all
/// of it under modulo hashing.
///
/// Pure data structure: no I/O, no clocks, no locks. NavRouter wraps it in
/// its own synchronization; tests drive it directly.
class HashRing {
 public:
  explicit HashRing(HashRingOptions options = HashRingOptions());

  /// Adds a backend identity. Ignored (returns false) if already present,
  /// or if its points would take the ring past kMaxRingPoints. Re-sorts
  /// the point table; build a whole membership with AddBackends.
  bool AddBackend(const std::string& id);

  /// Adds each of `ids` as AddBackend would, in order, with one sort of the
  /// point table at the end — how a whole membership is built. Returns the
  /// number added.
  size_t AddBackends(const std::vector<std::string>& ids);

  /// Removes a backend identity. False if absent.
  bool RemoveBackend(const std::string& id);

  /// Backend ids in insertion order.
  const std::vector<std::string>& backends() const { return backends_; }
  size_t size() const { return backends_.size(); }
  bool empty() const { return backends_.empty(); }

  /// Identity of the backend owning `key`; empty string on an empty ring.
  /// Stable across instances built with the same seed and backend set.
  const std::string& OwnerOf(std::string_view key) const;

  /// Distinct backend ids in ring order starting at the key's owner —
  /// the failover walk order (owner first, then the backends whose points
  /// follow clockwise). At most `max_backends` entries (0 = all).
  std::vector<std::string> PreferenceOrder(std::string_view key,
                                           size_t max_backends = 0) const;

  /// The seeded placement hash (exposed so tests can probe distribution
  /// properties directly).
  uint64_t HashKey(std::string_view key) const;

  /// One placement point: position on the ring + owning backend index
  /// (into backends()).
  struct Point {
    uint64_t position;
    uint32_t backend;
    bool operator<(const Point& other) const {
      if (position != other.position) return position < other.position;
      return backend < other.backend;
    }
    bool operator==(const Point&) const = default;
  };

  /// The placement table, sorted by (position, backend).
  const std::vector<Point>& points() const { return points_; }

 private:
  void InsertPoints(uint32_t backend_index);
  /// Index into points_ of the first point at or after hash(key),
  /// wrapping to 0 past the end.
  size_t LowerBound(uint64_t position) const;

  HashRingOptions options_;
  std::vector<std::string> backends_;
  std::vector<Point> points_;  // Sorted by (position, backend).
};

}  // namespace bionav

#endif  // BIONAV_ROUTER_HASH_RING_H_
