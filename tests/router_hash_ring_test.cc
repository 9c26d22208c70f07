// Unit tests of the consistent-hash ring behind the sharded serving tier:
// placement determinism, load balance across 2-16 shards, the minimal-remap
// property under membership changes, and the stickiness the router's
// session pinning relies on.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "router/hash_ring.h"

namespace bionav {
namespace {

std::vector<std::string> MakeBackends(int n) {
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back("10.0.0." + std::to_string(i + 1) + ":7000");
  }
  return ids;
}

HashRing MakeRing(int n) {
  HashRing ring;
  for (const std::string& id : MakeBackends(n)) ring.AddBackend(id);
  return ring;
}

std::string Key(int i) { return "query key " + std::to_string(i * 7919); }

TEST(RouterHashRing, EmptyRingHasNoOwner) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.OwnerOf("anything"), "");
  EXPECT_TRUE(ring.PreferenceOrder("anything").empty());
}

TEST(RouterHashRing, AddAndRemoveReportMembership) {
  HashRing ring;
  EXPECT_TRUE(ring.AddBackend("a:1"));
  EXPECT_FALSE(ring.AddBackend("a:1")) << "duplicate add must be a no-op";
  EXPECT_TRUE(ring.AddBackend("b:2"));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_FALSE(ring.RemoveBackend("c:3"));
  EXPECT_TRUE(ring.RemoveBackend("a:1"));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.OwnerOf("anything"), "b:2");
}

TEST(RouterHashRing, PlacementIsDeterministicAcrossInstances) {
  // Routers in a fleet build their rings independently; identical seed and
  // backend set must mean identical ownership, whatever the add order.
  HashRing forward = MakeRing(8);
  HashRing reversed;
  std::vector<std::string> ids = MakeBackends(8);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    reversed.AddBackend(*it);
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(forward.OwnerOf(Key(i)), reversed.OwnerOf(Key(i)));
  }
}

TEST(RouterHashRing, SessionTokensStickToOneOwner) {
  // The stickiness the router's pin fallback depends on: repeated lookups
  // of one token always land on the same shard.
  HashRing ring = MakeRing(5);
  for (int s = 0; s < 200; ++s) {
    // Two steps: gcc 12's -Wrestrict misfires on the
    // `"s" + std::to_string(...)` rvalue-insert path at -O2.
    std::string token = std::to_string(s + 1);
    token.insert(0, 1, 's');
    std::string owner = ring.OwnerOf(token);
    for (int repeat = 0; repeat < 10; ++repeat) {
      EXPECT_EQ(ring.OwnerOf(token), owner);
    }
  }
}

TEST(RouterHashRing, LoadBalanceAcrossShardCounts) {
  // 128 vnodes keep the max/min load ratio modest from 2 to 16 shards.
  const int kKeys = 20000;
  for (int shards : {2, 3, 4, 8, 16}) {
    HashRing ring = MakeRing(shards);
    std::map<std::string, int> load;
    for (const std::string& id : ring.backends()) load[id] = 0;
    for (int i = 0; i < kKeys; ++i) ++load[ring.OwnerOf(Key(i))];
    int min_load = kKeys, max_load = 0;
    for (const auto& [id, count] : load) {
      min_load = std::min(min_load, count);
      max_load = std::max(max_load, count);
    }
    EXPECT_GT(min_load, 0) << shards << " shards: a shard got nothing";
    EXPECT_LE(static_cast<double>(max_load) / min_load, 2.5)
        << shards << " shards: max " << max_load << " min " << min_load;
  }
}

TEST(RouterHashRing, AddingABackendOnlyMovesKeysOntoIt) {
  HashRing before = MakeRing(8);
  HashRing after = MakeRing(8);
  after.AddBackend("10.0.0.99:7000");
  const int kKeys = 20000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string was = before.OwnerOf(Key(i));
    std::string now = after.OwnerOf(Key(i));
    if (was != now) {
      EXPECT_EQ(now, "10.0.0.99:7000")
          << "a key moved between two surviving backends";
      ++moved;
    }
  }
  // Expect ~1/9 of the keyspace to churn; allow generous slack.
  EXPECT_GT(moved, kKeys / 20);
  EXPECT_LT(moved, kKeys / 4);
}

TEST(RouterHashRing, RemovingABackendOnlyMovesItsKeys) {
  HashRing before = MakeRing(8);
  HashRing after = MakeRing(8);
  const std::string removed = MakeBackends(8)[3];
  after.RemoveBackend(removed);
  for (int i = 0; i < 20000; ++i) {
    std::string was = before.OwnerOf(Key(i));
    std::string now = after.OwnerOf(Key(i));
    if (was == removed) {
      EXPECT_NE(now, removed);
    } else {
      EXPECT_EQ(now, was) << "a key not owned by the removed backend moved";
    }
  }
}

TEST(RouterHashRing, PreferenceOrderStartsAtOwnerAndCoversAll) {
  HashRing ring = MakeRing(6);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string> order = ring.PreferenceOrder(Key(i));
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], ring.OwnerOf(Key(i)));
    std::map<std::string, int> seen;
    for (const std::string& id : order) ++seen[id];
    EXPECT_EQ(seen.size(), 6u) << "duplicate backend in preference order";
  }
  std::vector<std::string> capped = ring.PreferenceOrder(Key(0), 2);
  EXPECT_EQ(capped.size(), 2u);
}

TEST(RouterHashRing, SeedChangesPlacement) {
  HashRing a{HashRingOptions{128, 1}};
  HashRing b{HashRingOptions{128, 2}};
  for (const std::string& id : MakeBackends(8)) {
    a.AddBackend(id);
    b.AddBackend(id);
  }
  int differs = 0;
  for (int i = 0; i < 2000; ++i) {
    if (a.OwnerOf(Key(i)) != b.OwnerOf(Key(i))) ++differs;
  }
  EXPECT_GT(differs, 1000) << "different seeds should shuffle ownership";
}

TEST(RouterHashRing, RingSizeCapIsOneTypedCheck) {
  EXPECT_TRUE(CheckRingSize(1, 1).ok());
  EXPECT_TRUE(CheckRingSize(kMaxRingVnodes, 64).ok());
  EXPECT_EQ(CheckRingSize(0, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckRingSize(kMaxRingVnodes + 1, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckRingSize(2147483647, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckRingSize(kMaxRingVnodes, 65).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckRingSize(1, kMaxRingPoints + 1).code(),
            StatusCode::kInvalidArgument);

  // The ring itself clamps its vnodes and refuses a backend whose points
  // would pass the cap, so no geometry makes it allocate without bound.
  HashRing ring{HashRingOptions{2147483647, 1}};
  ASSERT_EQ(ring.AddBackends(MakeBackends(64)), 64u);
  EXPECT_FALSE(ring.AddBackend("one:past"));
  EXPECT_EQ(ring.size(), 64u);
}

TEST(RouterHashRing, OneSortBuildMatchesIncrementalBuild) {
  // AddBackends sorts once; AddBackend sorts per add. Both must yield the
  // same ring point for point and owner for owner, duplicates and the size
  // cap included.
  struct Geometry {
    int vnodes;
    int backends;
  };
  for (Geometry g : {Geometry{1, 1}, Geometry{3, 7}, Geometry{128, 16},
                     Geometry{4096, 65}}) {
    SCOPED_TRACE(std::to_string(g.vnodes) + " vnodes x " +
                 std::to_string(g.backends));
    std::vector<std::string> ids = MakeBackends(g.backends);
    ids.push_back(ids.front());  // A duplicate is ignored either way.
    HashRing incremental{HashRingOptions{g.vnodes, 7}};
    size_t added = 0;
    for (const std::string& id : ids) added += incremental.AddBackend(id);
    HashRing batch{HashRingOptions{g.vnodes, 7}};
    EXPECT_EQ(batch.AddBackends(ids), added);
    EXPECT_EQ(batch.backends(), incremental.backends());
    EXPECT_EQ(batch.points(), incremental.points());
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(batch.OwnerOf(Key(i)), incremental.OwnerOf(Key(i)));
    }
    // A batch onto a non-empty ring, too.
    HashRing split{HashRingOptions{g.vnodes, 7}};
    split.AddBackend(ids.front());
    split.AddBackends(ids);
    EXPECT_EQ(split.points(), incremental.points());
  }
}

}  // namespace
}  // namespace bionav
