// End-to-end tests of fleet-wide artifact sharing: cross-shard
// singleflight via FETCH_ARTIFACT + PeerArtifactFetcher (exactly one
// build fleet-wide per key), hot-slice replication spreading a key across
// ring successors, TOPOLOGY-driven client-side routing, and the
// acceptance criterion that navigation costs are wire-oracle-identical no
// matter which path served the session — owner, replica, proxied, or
// client-routed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MatchesStructuralOracles;

const Workload& SharingWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

/// Two in-process shards with peer fetchers installed, behind one router.
/// Replication knobs are per-test.
struct FleetTier {
  explicit FleetTier(const Workload& w, int replicas = 1,
                     double replicate_above_qps = 10.0)
      : eutils0(w.corpus().MakeClient()), eutils1(w.corpus().MakeClient()) {
    fetcher0 = std::make_unique<PeerArtifactFetcher>(&w.hierarchy());
    fetcher1 = std::make_unique<PeerArtifactFetcher>(&w.hierarchy());
    server0 = std::make_unique<NavServer>(
        &w.hierarchy(), &eutils0, nullptr,
        ShardOptions("shard0", fetcher0.get()));
    server1 = std::make_unique<NavServer>(
        &w.hierarchy(), &eutils1, nullptr,
        ShardOptions("shard1", fetcher1.get()));
    EXPECT_TRUE(server0->Start().ok());
    EXPECT_TRUE(server1->Start().ok());

    NavRouterOptions router_options;
    router_options.health_interval_ms = 100;
    router_options.health_timeout_ms = 500;
    router_options.health_failures_to_eject = 2;
    router_options.half_open_after_ms = 200;
    router_options.connect_timeout_ms = 500;
    router_options.drain_deadline_ms = 1000;
    router_options.replicas = replicas;
    router_options.replicate_above_qps = replicate_above_qps;

    std::vector<PeerSpec> peers = {
        {"shard0", "127.0.0.1", server0->port()},
        {"shard1", "127.0.0.1", server1->port()}};
    for (int s = 0; s < 2; ++s) {
      PeerFetchOptions peer_options;
      peer_options.self_id = s == 0 ? "shard0" : "shard1";
      peer_options.peers = peers;
      peer_options.vnodes = router_options.ring_vnodes;
      peer_options.seed = router_options.ring_seed;
      (s == 0 ? fetcher0 : fetcher1)->Configure(std::move(peer_options));
    }

    router = std::make_unique<NavRouter>(
        std::vector<RouterBackend>{{"127.0.0.1", server0->port(), "shard0"},
                                   {"127.0.0.1", server1->port(), "shard1"}},
        router_options);
    EXPECT_TRUE(router->Start().ok());
  }

  ~FleetTier() {
    router->Shutdown();
    server0->Shutdown();
    server1->Shutdown();
  }

  static NavServerOptions ShardOptions(const std::string& shard_id,
                                       PeerArtifactFetcher* fetcher) {
    NavServerOptions options;
    options.threads = 2;
    options.session.token_prefix = shard_id + "-";
    options.session.peer_fetcher = [fetcher](const std::string& key) {
      return fetcher->Fetch(key);
    };
    return options;
  }

  std::string OwnerOf(const std::string& keyword) const {
    return router->ring().OwnerOf(NormalizeQueryKey(keyword));
  }

  NavServer& owner_shard(const std::string& keyword) {
    return OwnerOf(keyword) == "shard0" ? *server0 : *server1;
  }
  NavServer& replica_shard(const std::string& keyword) {
    return OwnerOf(keyword) == "shard0" ? *server1 : *server0;
  }

  int64_t FleetBuilds() const {
    return server0->stats().sessions.artifact_builds +
           server1->stats().sessions.artifact_builds;
  }
  int64_t FleetPeerHits() const {
    return server0->stats().sessions.peer_fetch_hits +
           server1->stats().sessions.peer_fetch_hits;
  }

  EUtilsClient eutils0;
  EUtilsClient eutils1;
  std::unique_ptr<PeerArtifactFetcher> fetcher0;
  std::unique_ptr<PeerArtifactFetcher> fetcher1;
  std::unique_ptr<NavServer> server0;
  std::unique_ptr<NavServer> server1;
  std::unique_ptr<NavRouter> router;
};

std::unique_ptr<NavClient> Dial(int port, WireProto proto = WireProto::kJson) {
  NavClientOptions options;
  options.proto = proto;
  options.recv_timeout_ms = 30 * 1000;
  auto connected = NavClient::Connect("127.0.0.1", port, options);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return connected.ok() ? connected.TakeValue() : nullptr;
}

struct OracleOutcome {
  int expand_actions = 0;
  int revealed_concepts = 0;
  int showresults_citations = 0;
  size_t result_size = 0;
  std::string token;
  int navigation_cost() const { return expand_actions + revealed_concepts; }
  bool operator==(const OracleOutcome& o) const {
    return expand_actions == o.expand_actions &&
           revealed_concepts == o.revealed_concepts &&
           showresults_citations == o.showresults_citations &&
           result_size == o.result_size;
  }
};

/// The paper's oracle user over any client with the NavClient op surface
/// (NavClient or RoutedNavClient).
template <typename Client>
OracleOutcome RunOracle(Client& client, const std::string& keyword,
                        ConceptId target) {
  OracleOutcome out;
  auto opened = client.Query(keyword);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  const std::string token = opened.ValueOrDie().token;
  out.token = token;
  out.result_size = opened.ValueOrDie().result_size;

  NavNodeId target_node = kInvalidNavNode;
  for (int step = 0; step < 1000; ++step) {
    auto found = client.Find(token, target);
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    if (!found.ok()) return out;
    const NavClient::FindReply& f = found.ValueOrDie();
    EXPECT_TRUE(f.found);
    if (!f.found) break;
    target_node = f.node;
    if (f.visible) {
      out.showresults_citations = f.distinct;
      break;
    }
    auto revealed = client.Expand(token, f.component_root);
    EXPECT_TRUE(revealed.ok()) << revealed.status().ToString();
    if (!revealed.ok()) return out;
    ++out.expand_actions;
    out.revealed_concepts += static_cast<int>(revealed.ValueOrDie().size());
  }
  if (target_node != kInvalidNavNode) {
    auto shown = client.ShowResults(token, target_node);
    EXPECT_TRUE(shown.ok()) << shown.status().ToString();
  }
  EXPECT_TRUE(client.CloseSession(token).ok());
  return out;
}

// ---------------------------------------------------------------------------
// Peer fetch: exactly one build fleet-wide

TEST(RouterFleetSharingE2E, PeerFetchGivesSingleBuildFleetWide) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);
  const GeneratedQuery& q = w.query(0);

  // Serve the same query on BOTH shards, bypassing the router so the
  // non-owner is forced to resolve the key itself. The owner builds; the
  // replica peer-fetches the owner's bundle instead of rebuilding.
  NavServer& owner = tier.owner_shard(q.spec.keyword);
  NavServer& replica = tier.replica_shard(q.spec.keyword);
  std::unique_ptr<NavClient> on_owner = Dial(owner.port());
  std::unique_ptr<NavClient> on_replica = Dial(replica.port());
  ASSERT_NE(on_owner, nullptr);
  ASSERT_NE(on_replica, nullptr);

  OracleOutcome owner_outcome = RunOracle(*on_owner, q.spec.keyword, q.target);
  OracleOutcome replica_outcome =
      RunOracle(*on_replica, q.spec.keyword, q.target);

  // One build, one peer-fetch hit, identical navigation.
  EXPECT_EQ(tier.FleetBuilds(), 1);
  EXPECT_EQ(tier.FleetPeerHits(), 1);
  EXPECT_EQ(owner.stats().sessions.artifact_builds, 1);
  EXPECT_EQ(replica.stats().sessions.artifact_builds, 0);
  EXPECT_EQ(replica.stats().sessions.peer_fetch_hits, 1);
  EXPECT_TRUE(owner_outcome == replica_outcome)
      << "replica cost " << replica_outcome.navigation_cost() << " vs owner "
      << owner_outcome.navigation_cost();
  EXPECT_GT(owner_outcome.result_size, 0u);
}

TEST(RouterFleetSharingE2E, ReplicaOrderIsIrrelevantToBuildCount) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);
  const GeneratedQuery& q = w.query(1);

  // Replica first: its peer fetch lands on the owner, whose
  // FETCH_ARTIFACT handler builds on demand through the same
  // singleflight — still one build fleet-wide, attributed to the owner.
  std::unique_ptr<NavClient> on_replica =
      Dial(tier.replica_shard(q.spec.keyword).port());
  std::unique_ptr<NavClient> on_owner =
      Dial(tier.owner_shard(q.spec.keyword).port());
  ASSERT_NE(on_replica, nullptr);
  ASSERT_NE(on_owner, nullptr);

  OracleOutcome replica_outcome =
      RunOracle(*on_replica, q.spec.keyword, q.target);
  OracleOutcome owner_outcome = RunOracle(*on_owner, q.spec.keyword, q.target);

  EXPECT_EQ(tier.FleetBuilds(), 1);
  EXPECT_EQ(tier.owner_shard(q.spec.keyword).stats().sessions.artifact_builds,
            1);
  EXPECT_EQ(tier.FleetPeerHits(), 1);
  EXPECT_TRUE(owner_outcome == replica_outcome);
}

// ---------------------------------------------------------------------------
// Hot-slice replication

TEST(RouterFleetSharingE2E, ReplicatedHotKeySpreadsAcrossShardsAndMatches) {
  const Workload& w = SharingWorkload();
  // replicate_above 0: every key is "hot" from the first request — the
  // deterministic configuration the cold fan-in CI gate uses.
  FleetTier tier(w, /*replicas=*/2, /*replicate_above_qps=*/0);
  const GeneratedQuery& q = w.query(0);

  // Each oracle session on its own connection through the router; with
  // round-robin spreading, consecutive QUERYs alternate shards.
  std::vector<OracleOutcome> outcomes;
  for (int i = 0; i < 6; ++i) {
    std::unique_ptr<NavClient> client = Dial(tier.router->port());
    ASSERT_NE(client, nullptr);
    outcomes.push_back(RunOracle(*client, q.spec.keyword, q.target));
  }
  for (const OracleOutcome& o : outcomes) {
    EXPECT_TRUE(o == outcomes[0]) << "replicated session diverged";
  }

  // Both shards served the hot key (tokens brand their minting shard),
  // yet the fleet built its artifacts exactly once.
  std::map<std::string, int> minted;
  for (const OracleOutcome& o : outcomes) {
    ++minted[o.token.substr(0, o.token.find('-'))];
  }
  EXPECT_GT(minted["shard0"], 0) << "replication never used shard0";
  EXPECT_GT(minted["shard1"], 0) << "replication never used shard1";
  EXPECT_EQ(tier.FleetBuilds(), 1);
  EXPECT_EQ(tier.FleetPeerHits(), 1);

  // The router's STATS rollup reports the hot key and the fleet totals.
  // The fleet numbers ride the periodic health-probe scrape, so poll a
  // few probe intervals before judging them.
  std::unique_ptr<NavClient> scraper = Dial(tier.router->port());
  ASSERT_NE(scraper, nullptr);
  JsonValue doc;
  for (int i = 0; i < 50; ++i) {
    auto stats_doc = scraper->Stats();
    ASSERT_TRUE(stats_doc.ok()) << stats_doc.status().ToString();
    doc = stats_doc.TakeValue();
    const JsonValue* fleet = doc.Find("fleet");
    if (fleet != nullptr && fleet->IntOr("artifact_builds", -1) == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const JsonValue* hot = doc.Find("hot_keys");
  ASSERT_NE(hot, nullptr);
  EXPECT_GE(hot->IntOr("tracked", 0), 1);
  const JsonValue* fleet = doc.Find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->IntOr("artifact_builds", -1), 1);
  EXPECT_EQ(fleet->IntOr("peer_fetch_hits", -1), 1);
}

// ---------------------------------------------------------------------------
// FETCH_ARTIFACT and TOPOLOGY over the wire

TEST(RouterFleetSharingE2E, FetchArtifactThroughRouterReachesOwner) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);
  const GeneratedQuery& q = w.query(2);
  const std::string key = NormalizeQueryKey(q.spec.keyword);

  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    std::unique_ptr<NavClient> client = Dial(tier.router->port(), proto);
    ASSERT_NE(client, nullptr);
    auto record = client->FetchArtifact(key);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    auto decoded =
        QueryArtifacts::Deserialize(w.hierarchy(), record.ValueOrDie());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.ValueOrDie()->key, key);
    EXPECT_TRUE(MatchesStructuralOracles(*decoded.ValueOrDie()->nav));
  }
  // Both proto fetches resolved through the owner's singleflight: one
  // build, no peer traffic (the router forwarded, no shard peer-fetched).
  EXPECT_EQ(tier.FleetBuilds(), 1);
  EXPECT_EQ(tier.FleetPeerHits(), 0);
}

TEST(RouterFleetSharingE2E, TopologyFromRouterAndTypedErrorFromBareShard) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);

  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    std::unique_ptr<NavClient> client = Dial(tier.router->port(), proto);
    ASSERT_NE(client, nullptr);
    auto topology = client->Topology();
    ASSERT_TRUE(topology.ok()) << topology.status().ToString();
    const JsonValue& doc = topology.ValueOrDie();
    EXPECT_GE(doc.IntOr("generation", 0), 1);
    EXPECT_EQ(doc.IntOr("vnodes", 0), NavRouterOptions().ring_vnodes);
    const JsonValue* backends = doc.Find("backends");
    ASSERT_NE(backends, nullptr);
    EXPECT_EQ(backends->array_items().size(), 2u);
  }

  // A bare backend has no fleet view: typed FAILED_PRECONDITION, so a
  // RoutedNavClient pointed at a plain server knows to stay proxied.
  std::unique_ptr<NavClient> bare = Dial(tier.server0->port());
  ASSERT_NE(bare, nullptr);
  auto denied = bare->Topology();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Client-side routing

TEST(RoutedClientE2E, DirectCallsMatchProxiedOracleExactly) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);

  RoutedNavClientOptions options;
  options.client.recv_timeout_ms = 30 * 1000;
  auto connected =
      RoutedNavClient::Connect("127.0.0.1", tier.router->port(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<RoutedNavClient> routed = connected.TakeValue();
  ASSERT_EQ(routed->topology().backends.size(), 2u);
  EXPECT_GE(routed->topology().generation, 1u);

  std::unique_ptr<NavClient> proxied = Dial(tier.router->port());
  ASSERT_NE(proxied, nullptr);

  // Same oracle via both paths, one keyword per shard slice, with the
  // proxied run first so the routed run hits warm caches (identity must
  // hold cold or warm).
  int compared = 0;
  for (size_t i = 0; i < w.num_queries() && compared < 4; ++i) {
    const GeneratedQuery& q = w.query(i);
    OracleOutcome via_proxy = RunOracle(*proxied, q.spec.keyword, q.target);
    OracleOutcome via_direct = RunOracle(*routed, q.spec.keyword, q.target);
    EXPECT_TRUE(via_proxy == via_direct) << q.spec.name;
    // Direct tokens are minted by the ring owner the client computed.
    EXPECT_EQ(via_direct.token.rfind(tier.OwnerOf(q.spec.keyword) + "-", 0),
              0u)
        << q.spec.name;
    ++compared;
  }
  EXPECT_GT(routed->direct_calls(), 0);
  EXPECT_EQ(routed->proxied_calls(), 0)
      << "healthy fleet must not need the proxy fallback";
}

TEST(RoutedClientE2E, BareServerFallsBackToProxiedOnlyMode) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);

  // Pointed at a bare shard (TOPOLOGY is typed FAILED_PRECONDITION),
  // the client degrades to plain proxying and still serves correctly.
  auto connected =
      RoutedNavClient::Connect("127.0.0.1", tier.server0->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<RoutedNavClient> routed = connected.TakeValue();
  EXPECT_TRUE(routed->topology().backends.empty());

  const GeneratedQuery& q = w.query(0);
  OracleOutcome outcome = RunOracle(*routed, q.spec.keyword, q.target);
  EXPECT_GT(outcome.result_size, 0u);
  EXPECT_EQ(routed->direct_calls(), 0);
  EXPECT_GT(routed->proxied_calls(), 0);
}

// ---------------------------------------------------------------------------
// BATCH_EXPAND on an ejected pinned backend (issue satellite)

TEST(RouterFleetSharingE2E, BatchExpandOnEjectedPinnedBackendIsTypedRetry) {
  const Workload& w = SharingWorkload();
  FleetTier tier(w);

  // Open a session pinned to shard0's slice through the router.
  std::string kw0;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    if (tier.OwnerOf(w.query(i).spec.keyword) == "shard0") {
      kw0 = w.query(i).spec.keyword;
      break;
    }
  }
  ASSERT_FALSE(kw0.empty());
  std::unique_ptr<NavClient> client = Dial(tier.router->port());
  ASSERT_NE(client, nullptr);
  auto opened = client->Query(kw0);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::string token = opened.ValueOrDie().token;

  // Kill the pinned shard and wait for the health checker to eject it.
  tier.server0->Shutdown();
  bool ejected = false;
  for (int i = 0; i < 100 && !ejected; ++i) {
    for (const RouterBackendStats& b : tier.router->stats().backends) {
      if (b.id == "shard0" && b.health == BackendHealth::kUnhealthy) {
        ejected = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(ejected);

  // BATCH_EXPAND on the dead pin: typed RETRY_LATER, never a transport
  // error or hang — same contract as the single-op path.
  auto batch = client->ExpandMany(token, {NavigationTree::kRoot});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition)
      << batch.status().ToString();
  EXPECT_NE(batch.status().message().find("RETRY_LATER"), std::string::npos)
      << batch.status().ToString();
}

// ---------------------------------------------------------------------------
// PeerArtifactFetcher unit surface

TEST(PeerFetchTest, ParsePeersFileAcceptsCanonicalFormat) {
  auto parsed = PeerArtifactFetcher::ParsePeersFile(
      "# fleet written by bionav_route\n"
      "vnodes 64\n"
      "seed 12345\n"
      "peer shard0 127.0.0.1:40001\n"
      "peer shard1 127.0.0.1:40002\n",
      "shard0");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PeerFetchOptions& options = parsed.ValueOrDie();
  EXPECT_EQ(options.self_id, "shard0");
  EXPECT_EQ(options.vnodes, 64);
  EXPECT_EQ(options.seed, 12345u);
  ASSERT_EQ(options.peers.size(), 2u);
  EXPECT_EQ(options.peers[1].id, "shard1");
  EXPECT_EQ(options.peers[1].host, "127.0.0.1");
  EXPECT_EQ(options.peers[1].port, 40002);
}

TEST(PeerFetchTest, ParsePeersFileRejectsMissingSelfAndGarbage) {
  EXPECT_FALSE(PeerArtifactFetcher::ParsePeersFile(
                   "peer shard1 127.0.0.1:40002\n", "shard0")
                   .ok())
      << "a fleet view that omits this shard places keys wrong";
  EXPECT_FALSE(
      PeerArtifactFetcher::ParsePeersFile("peer shard0 nonsense\n", "shard0")
          .ok());
  EXPECT_FALSE(PeerArtifactFetcher::ParsePeersFile("", "shard0").ok());
}

TEST(PeerFetchTest, RingGeometryPastTheCapIsRejected) {
  const std::string peers = "peer shard0 127.0.0.1:40001\n";
  EXPECT_EQ(PeerArtifactFetcher::ParsePeersFile(
                "vnodes " + std::to_string(kMaxRingVnodes + 1) + "\n" + peers,
                "shard0")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(PeerArtifactFetcher::ParsePeersFile(
                  "vnodes " + std::to_string(kMaxRingVnodes) + "\n" + peers,
                  "shard0")
                  .ok());

  // The router refuses the same geometry before it binds a port.
  NavRouterOptions options;
  options.ring_vnodes = static_cast<int>(kMaxRingVnodes) + 1;
  NavRouter router(std::vector<RouterBackend>{{"127.0.0.1", 1, "b0"}},
                   options);
  EXPECT_EQ(router.Start().code(), StatusCode::kInvalidArgument);
}

TEST(PeerFetchTest, UnconfiguredSelfOwnedAndDeadPeerAllFallBack) {
  const Workload& w = SharingWorkload();
  PeerArtifactFetcher fetcher(&w.hierarchy());

  // Unconfigured: every fetch is a local-build fallback.
  EXPECT_FALSE(fetcher.configured());
  EXPECT_EQ(fetcher.Fetch("anything"), nullptr);

  // Configured with one live-looking-but-dead peer: self-owned keys are
  // skipped, peer-owned keys miss on the dead socket. Either way nullptr.
  PeerFetchOptions options;
  options.self_id = "me";
  options.peers = {{"me", "127.0.0.1", 1}, {"other", "127.0.0.1", 1}};
  options.connect_timeout_ms = 200;
  fetcher.Configure(std::move(options));
  EXPECT_TRUE(fetcher.configured());

  HashRingOptions ring_options;
  HashRing ring(ring_options);
  ring.AddBackend("me");
  ring.AddBackend("other");
  std::string mine, theirs;
  for (int i = 0; i < 64 && (mine.empty() || theirs.empty()); ++i) {
    std::string key = "key-" + std::to_string(i);
    (ring.OwnerOf(key) == "me" ? mine : theirs) = key;
  }
  ASSERT_FALSE(mine.empty());
  ASSERT_FALSE(theirs.empty());

  EXPECT_EQ(fetcher.Fetch(mine), nullptr);
  EXPECT_EQ(fetcher.Fetch(theirs), nullptr);
  PeerArtifactFetcher::Stats stats = fetcher.stats();
  EXPECT_EQ(stats.self_owned, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST(PeerFetchTest, ConfigureFromFileCoversTheAutoSpawnWindow) {
  const Workload& w = SharingWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServerOptions server_options;
  server_options.threads = 2;
  NavServer owner(&w.hierarchy(), &eutils, nullptr, server_options);
  ASSERT_TRUE(owner.Start().ok());

  std::string path = "/tmp/bionav_peer_fetch_test_peers_" +
                     std::to_string(::getpid()) + ".txt";

  PeerArtifactFetcher fetcher(&w.hierarchy());
  fetcher.ConfigureFromFile(path, "replica");
  // File not written yet (the auto-spawn window): fetches fall back but
  // the fetcher keeps re-probing instead of latching unconfigured.
  EXPECT_EQ(fetcher.Fetch(NormalizeQueryKey(w.query(0).spec.keyword)),
            nullptr);
  EXPECT_FALSE(fetcher.configured());

  {
    std::string contents =
        "vnodes " + std::to_string(HashRingOptions().vnodes) + "\n" +
        "seed " + std::to_string(HashRingOptions().seed) + "\n" +
        "peer replica 127.0.0.1:1\n" +
        "peer owner 127.0.0.1:" + std::to_string(owner.port()) + "\n";
    FILE* f = ::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    ::fwrite(contents.data(), 1, contents.size(), f);
    ::fclose(f);
  }

  // Find a key the (single-)owner side of the ring owns.
  HashRing ring{HashRingOptions()};
  ring.AddBackend("replica");
  ring.AddBackend("owner");
  std::string owned_key;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    std::string key = NormalizeQueryKey(w.query(i).spec.keyword);
    if (ring.OwnerOf(key) == "owner") {
      owned_key = key;
      break;
    }
  }
  ASSERT_FALSE(owned_key.empty());

  std::shared_ptr<const QueryArtifacts> fetched = fetcher.Fetch(owned_key);
  ASSERT_NE(fetched, nullptr) << "lazy file config never took effect";
  EXPECT_TRUE(fetcher.configured());
  EXPECT_EQ(fetched->key, owned_key);
  EXPECT_TRUE(MatchesStructuralOracles(*fetched->nav));

  ::remove(path.c_str());
  owner.Shutdown();
}

}  // namespace
}  // namespace bionav
