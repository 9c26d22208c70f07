// End-to-end tests of the sharded serving tier: a NavRouter fronting two
// in-process NavServer shards over a small paper workload. The central
// assertions are the issue's acceptance criteria — a mixed JSON/binary
// workload through the router produces navigation costs identical to the
// single-process wire oracle, sessions never migrate mid-lifetime, and a
// killed backend's slice yields only typed RETRY_LATER (no hangs, no
// transport errors) while the surviving shard keeps serving.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

/// Small paper workload (same scale as server_e2e_test — a few seconds to
/// build, shared across all tests in this file).
const Workload& SmallWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

NavServerOptions ShardServerOptions(const std::string& shard_id) {
  NavServerOptions options;
  options.threads = 2;
  // Fleet-unique tokens: the router pins sessions by token, so shards
  // must not both mint "s1".
  options.session.token_prefix = shard_id + "-";
  return options;
}

NavRouterOptions FastRouterOptions() {
  NavRouterOptions options;
  options.health_interval_ms = 100;
  options.health_timeout_ms = 500;
  options.health_failures_to_eject = 2;
  options.half_open_after_ms = 200;
  options.connect_timeout_ms = 500;
  options.drain_deadline_ms = 1000;
  return options;
}

/// Two in-process shards behind one router.
struct Tier {
  explicit Tier(const Workload& w)
      : eutils0(w.corpus().MakeClient()), eutils1(w.corpus().MakeClient()) {
    server0 = std::make_unique<NavServer>(&w.hierarchy(), &eutils0, nullptr,
                                          ShardServerOptions("shard0"));
    server1 = std::make_unique<NavServer>(&w.hierarchy(), &eutils1, nullptr,
                                          ShardServerOptions("shard1"));
    EXPECT_TRUE(server0->Start().ok());
    EXPECT_TRUE(server1->Start().ok());
    router = std::make_unique<NavRouter>(
        std::vector<RouterBackend>{{"127.0.0.1", server0->port(), "shard0"},
                                   {"127.0.0.1", server1->port(), "shard1"}},
        FastRouterOptions());
    EXPECT_TRUE(router->Start().ok());
  }

  /// Ring identity of the shard a fresh QUERY for `keyword` lands on.
  std::string OwnerOf(const std::string& keyword) const {
    return router->ring().OwnerOf(NormalizeQueryKey(keyword));
  }

  EUtilsClient eutils0;
  EUtilsClient eutils1;
  std::unique_ptr<NavServer> server0;
  std::unique_ptr<NavServer> server1;
  std::unique_ptr<NavRouter> router;
};

std::unique_ptr<NavClient> ConnectRouter(const Tier& tier, WireProto proto) {
  NavClientOptions options;
  options.proto = proto;
  options.recv_timeout_ms = 30 * 1000;  // A hang is a failure, not a stall.
  auto connected = NavClient::Connect("127.0.0.1", tier.router->port(),
                                      options);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return connected.ok() ? connected.TakeValue() : nullptr;
}

struct WireOracleOutcome {
  int expand_actions = 0;
  int revealed_concepts = 0;
  int showresults_citations = 0;
  size_t result_size = 0;
  std::string token;
  int navigation_cost() const { return expand_actions + revealed_concepts; }
};

/// The paper's oracle user over the wire (same loop as server_e2e_test):
/// expand the target's component until the target is visible, SHOWRESULTS,
/// CLOSE.
WireOracleOutcome RunWireOracle(NavClient& client, const std::string& keyword,
                                ConceptId target) {
  WireOracleOutcome out;
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
    if (shown.ok()) {
      EXPECT_EQ(static_cast<int>(shown.ValueOrDie().total),
                out.showresults_citations);
    }
  }
  EXPECT_TRUE(client.CloseSession(token).ok());
  return out;
}

/// Binds an ephemeral port, notes it, and releases it — a port a test can
/// hand to the router as a not-yet-started backend.
int ReserveEphemeralPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

bool IsTypedRetryLater(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().find("RETRY_LATER") != std::string::npos;
}

TEST(RouterE2E, MixedWireOracleMatchesInProcessWorkload) {
  const Workload& w = SmallWorkload();
  Tier tier(w);

  // The reference: identical oracle sessions served in-process.
  WorkloadRunResult reference = w.Run(WorkloadRunOptions());
  ASSERT_EQ(reference.sessions.size(), w.num_queries());

  std::unique_ptr<NavClient> json_client =
      ConnectRouter(tier, WireProto::kJson);
  std::unique_ptr<NavClient> binary_client =
      ConnectRouter(tier, WireProto::kBinary);
  ASSERT_NE(json_client, nullptr);
  ASSERT_NE(binary_client, nullptr);

  std::map<std::string, int> predicted_sessions;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const GeneratedQuery& q = w.query(i);
    // Alternate encodings: both framings cross the router in one test.
    NavClient& client = (i % 2 == 0) ? *json_client : *binary_client;
    WireOracleOutcome wire = RunWireOracle(client, q.spec.keyword, q.target);
    const NavigationMetrics& ref = reference.sessions[i].metrics;
    EXPECT_EQ(wire.expand_actions, ref.expand_actions) << q.spec.name;
    EXPECT_EQ(wire.revealed_concepts, ref.revealed_concepts) << q.spec.name;
    EXPECT_EQ(wire.navigation_cost(), ref.navigation_cost()) << q.spec.name;
    EXPECT_EQ(wire.showresults_citations, ref.showresults_citations)
        << q.spec.name;
    // The shard that minted the token brands it; placement must agree with
    // the ring — and since every later op of the oracle succeeded, the
    // session never migrated off that shard.
    std::string owner = tier.OwnerOf(q.spec.keyword);
    EXPECT_EQ(wire.token.rfind(owner + "-", 0), 0u)
        << q.spec.name << ": token " << wire.token << " not minted by ring "
        << "owner " << owner;
    ++predicted_sessions[owner];
  }

  // Placement check from the shards' own counters.
  EXPECT_EQ(tier.server0->stats().sessions.created,
            predicted_sessions["shard0"]);
  EXPECT_EQ(tier.server1->stats().sessions.created,
            predicted_sessions["shard1"]);
  EXPECT_GT(predicted_sessions["shard0"], 0)
      << "workload never exercised shard0 — enlarge the workload";
  EXPECT_GT(predicted_sessions["shard1"], 0)
      << "workload never exercised shard1 — enlarge the workload";

  NavRouterStats stats = tier.router->stats();
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(stats.retry_later, 0);
  EXPECT_EQ(stats.connections_shed, 0);
  EXPECT_GT(stats.forwarded, 0);
  EXPECT_EQ(stats.pinned_sessions, 0) << "CLOSE must drop the pin";

  tier.router->Shutdown();
  tier.server0->Shutdown();
  tier.server1->Shutdown();
}

TEST(RouterE2E, PipelinedSessionsOnOneConnectionStayPinned) {
  const Workload& w = SmallWorkload();
  Tier tier(w);
  std::unique_ptr<NavClient> client = ConnectRouter(tier, WireProto::kJson);
  ASSERT_NE(client, nullptr);

  // Two sessions on different shards, both driven through one downstream
  // connection. Keywords are picked by ring owner so the test still holds
  // if the workload generator changes.
  std::string kw0, kw1;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const std::string& kw = w.query(i).spec.keyword;
    if (tier.OwnerOf(kw) == "shard0" && kw0.empty()) kw0 = kw;
    if (tier.OwnerOf(kw) == "shard1" && kw1.empty()) kw1 = kw;
  }
  ASSERT_FALSE(kw0.empty());
  ASSERT_FALSE(kw1.empty());

  auto q0 = client->Query(kw0);
  auto q1 = client->Query(kw1);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  const std::string t0 = q0.ValueOrDie().token;
  const std::string t1 = q1.ValueOrDie().token;
  EXPECT_EQ(t0.rfind("shard0-", 0), 0u);
  EXPECT_EQ(t1.rfind("shard1-", 0), 0u);

  // Pipeline interleaved ops: requests fan out to both shards but the
  // responses must come back in request order, each from its pinned shard.
  const int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    Request a;
    a.op = RequestOp::kView;
    a.token = t0;
    Request b;
    b.op = RequestOp::kView;
    b.token = t1;
    ASSERT_TRUE(client->Send(a).ok());
    ASSERT_TRUE(client->Send(b).ok());
    auto ra = client->Receive();
    auto rb = client->Receive();
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    // In-order release: response i belongs to request i, so the "op"
    // echoes match and neither shard answered UNKNOWN_SESSION.
    EXPECT_TRUE(ra.ValueOrDie().BoolOr("ok", false)) << round;
    EXPECT_TRUE(rb.ValueOrDie().BoolOr("ok", false)) << round;
  }

  NavRouterStats stats = tier.router->stats();
  EXPECT_EQ(stats.pinned_sessions, 2);
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(stats.retry_later, 0);

  EXPECT_TRUE(client->CloseSession(t0).ok());
  EXPECT_TRUE(client->CloseSession(t1).ok());
  tier.router->Shutdown();
  tier.server0->Shutdown();
  tier.server1->Shutdown();
}

TEST(RouterE2E, KilledBackendYieldsOnlyTypedRetryLaterOnItsSlice) {
  const Workload& w = SmallWorkload();
  Tier tier(w);
  std::unique_ptr<NavClient> client = ConnectRouter(tier, WireProto::kJson);
  ASSERT_NE(client, nullptr);

  std::string kw0, kw1;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const std::string& kw = w.query(i).spec.keyword;
    if (tier.OwnerOf(kw) == "shard0" && kw0.empty()) kw0 = kw;
    if (tier.OwnerOf(kw) == "shard1" && kw1.empty()) kw1 = kw;
  }
  ASSERT_FALSE(kw0.empty());
  ASSERT_FALSE(kw1.empty());

  auto q0 = client->Query(kw0);
  auto q1 = client->Query(kw1);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  const std::string dead_token = q0.ValueOrDie().token;
  const std::string live_token = q1.ValueOrDie().token;

  // Kill shard0 mid-load.
  tier.server0->Shutdown();

  // Its slice: every op on the dead shard's session and every new QUERY it
  // owns must be a typed RETRY_LATER — never a hang (recv_timeout would
  // trip), never a raw transport error.
  int retry_laters = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto dead_view = client->View(dead_token);
    ASSERT_FALSE(dead_view.ok());
    EXPECT_TRUE(IsTypedRetryLater(dead_view.status()))
        << dead_view.status().ToString();
    if (IsTypedRetryLater(dead_view.status())) ++retry_laters;

    auto dead_query = client->Query(kw0);
    ASSERT_FALSE(dead_query.ok());
    EXPECT_TRUE(IsTypedRetryLater(dead_query.status()))
        << dead_query.status().ToString();

    // The surviving shard keeps serving the whole time.
    auto live_view = client->View(live_token);
    EXPECT_TRUE(live_view.ok()) << live_view.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(retry_laters, 10);

  // The health checker ejects the dead shard.
  bool ejected = false;
  for (int i = 0; i < 100 && !ejected; ++i) {
    for (const RouterBackendStats& b : tier.router->stats().backends) {
      if (b.id == "shard0" && b.health == BackendHealth::kUnhealthy) {
        ejected = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(ejected);

  // Fresh sessions on the survivor still open fine.
  auto fresh = client->Query(kw1);
  EXPECT_TRUE(fresh.ok());

  tier.router->Shutdown();
  tier.server1->Shutdown();
}

TEST(RouterE2E, DrainingBackendStopsNewSessionsButServesPinned) {
  const Workload& w = SmallWorkload();
  Tier tier(w);
  std::unique_ptr<NavClient> client = ConnectRouter(tier, WireProto::kJson);
  ASSERT_NE(client, nullptr);

  std::string kw0;
  for (size_t i = 0; i < w.num_queries() && kw0.empty(); ++i) {
    const std::string& kw = w.query(i).spec.keyword;
    if (tier.OwnerOf(kw) == "shard0") kw0 = kw;
  }
  ASSERT_FALSE(kw0.empty());

  auto pinned = client->Query(kw0);
  ASSERT_TRUE(pinned.ok());
  const std::string token = pinned.ValueOrDie().token;
  EXPECT_EQ(token.rfind("shard0-", 0), 0u);

  EXPECT_FALSE(tier.router->SetBackendDraining("nosuch", true));
  ASSERT_TRUE(tier.router->SetBackendDraining("shard0", true));

  // New sessions for shard0-owned keys spill to the next ring position...
  auto spilled = client->Query(kw0);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(spilled.ValueOrDie().token.rfind("shard1-", 0), 0u);

  // ...while the pinned session keeps being served by the draining shard.
  auto view = client->View(token);
  EXPECT_TRUE(view.ok()) << view.status().ToString();

  // Undrained, placement returns home.
  ASSERT_TRUE(tier.router->SetBackendDraining("shard0", false));
  auto back_home = client->Query(kw0);
  ASSERT_TRUE(back_home.ok());
  EXPECT_EQ(back_home.ValueOrDie().token.rfind("shard0-", 0), 0u);

  tier.router->Shutdown();
  tier.server0->Shutdown();
  tier.server1->Shutdown();
}

TEST(RouterE2E, EjectedBackendRecoversThroughHalfOpenProbe) {
  const Workload& w = SmallWorkload();
  int late_port = ReserveEphemeralPort();
  EUtilsClient eutils0 = w.corpus().MakeClient();
  NavServer server0(&w.hierarchy(), &eutils0, nullptr,
                    ShardServerOptions("shard0"));
  ASSERT_TRUE(server0.Start().ok());

  NavRouter router(
      std::vector<RouterBackend>{{"127.0.0.1", server0.port(), "shard0"},
                                 {"127.0.0.1", late_port, "shard1"}},
      FastRouterOptions());
  ASSERT_TRUE(router.Start().ok());

  NavClientOptions copts;
  copts.recv_timeout_ms = 30 * 1000;
  auto connected = NavClient::Connect("127.0.0.1", router.port(), copts);
  ASSERT_TRUE(connected.ok());
  NavClient& client = *connected.ValueOrDie();

  std::string kw1;
  for (size_t i = 0; i < w.num_queries() && kw1.empty(); ++i) {
    const std::string& kw = w.query(i).spec.keyword;
    if (router.ring().OwnerOf(NormalizeQueryKey(kw)) == "shard1") kw1 = kw;
  }
  ASSERT_FALSE(kw1.empty());

  // shard1 is not up yet: its slice answers typed RETRY_LATER.
  auto down = client.Query(kw1);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(IsTypedRetryLater(down.status())) << down.status().ToString();

  // Bring shard1 up on the advertised port; the half-open probe readmits.
  EUtilsClient eutils1 = w.corpus().MakeClient();
  NavServerOptions sopts = ShardServerOptions("shard1");
  sopts.port = late_port;
  NavServer server1(&w.hierarchy(), &eutils1, nullptr, sopts);
  ASSERT_TRUE(server1.Start().ok());

  bool healthy = false;
  for (int i = 0; i < 200 && !healthy; ++i) {
    for (const RouterBackendStats& b : router.stats().backends) {
      if (b.id == "shard1" && b.health == BackendHealth::kHealthy) {
        healthy = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(healthy) << "half-open probe never readmitted shard1";

  auto up = client.Query(kw1);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up.ValueOrDie().token.rfind("shard1-", 0), 0u);

  router.Shutdown();
  server0.Shutdown();
  server1.Shutdown();
}

TEST(RouterE2E, AggregatedStatsAndMetricsAnswerLocally) {
  const Workload& w = SmallWorkload();
  Tier tier(w);
  std::unique_ptr<NavClient> client = ConnectRouter(tier, WireProto::kJson);
  ASSERT_NE(client, nullptr);

  auto q = client->Query(w.query(0).spec.keyword);
  ASSERT_TRUE(q.ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue& doc = stats.ValueOrDie();
  EXPECT_EQ(doc.StringOr("role", ""), "router");
  const JsonValue* router_obj = doc.Find("router");
  ASSERT_NE(router_obj, nullptr);
  EXPECT_EQ(router_obj->IntOr("backends_total", 0), 2);
  EXPECT_GT(router_obj->IntOr("forwarded", 0), 0);
  ASSERT_NE(doc.Find("fleet"), nullptr);
  const JsonValue* backends = doc.Find("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_TRUE(backends->is_array());
  ASSERT_EQ(backends->array_items().size(), 2u);
  EXPECT_EQ(backends->array_items()[0].StringOr("id", ""), "shard0");
  EXPECT_EQ(backends->array_items()[0].StringOr("state", ""), "healthy");

  // The probe scrapes populate the fleet rollup within a few intervals.
  bool scraped = false;
  for (int i = 0; i < 100 && !scraped; ++i) {
    auto again = client->Stats();
    ASSERT_TRUE(again.ok());
    const JsonValue* fleet = again.ValueOrDie().Find("fleet");
    ASSERT_NE(fleet, nullptr);
    if (fleet->IntOr("scraped", 0) == 2 &&
        fleet->IntOr("sessions_created", 0) >= 1) {
      scraped = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(scraped) << "health probes never scraped both backends";

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.ValueOrDie().find("bionav_router_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.ValueOrDie().find("bionav_router_forward_us"),
            std::string::npos);

  tier.router->Shutdown();
  tier.server0->Shutdown();
  tier.server1->Shutdown();
}

/// A router whose one backend never listens, with health probes off: the
/// downstream front-end behaviour below needs no shard (STATS is answered
/// by the router itself).
std::unique_ptr<NavRouter> StartBareRouter(NavRouterOptions options) {
  options.health_interval_ms = 0;
  auto router = std::make_unique<NavRouter>(
      std::vector<RouterBackend>{
          {"127.0.0.1", ReserveEphemeralPort(), "unstarted"}},
      options);
  EXPECT_TRUE(router->Start().ok());
  EXPECT_GT(router->port(), 0);
  return router;
}

std::unique_ptr<NavClient> ConnectBare(const NavRouter& router,
                                       WireProto proto = WireProto::kJson) {
  NavClientOptions options;
  options.proto = proto;
  auto connected = NavClient::Connect("127.0.0.1", router.port(), options);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return connected.ok() ? connected.TakeValue() : nullptr;
}

TEST(RouterE2E, AdmissionControlShedsBeyondLimit) {
  NavRouterOptions options;
  options.max_connections = 1;
  std::unique_ptr<NavRouter> router = StartBareRouter(options);

  std::unique_ptr<NavClient> first = ConnectBare(*router);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Stats().ok());  // Admitted and live.

  std::unique_ptr<NavClient> second = ConnectBare(*router);
  ASSERT_NE(second, nullptr);
  auto shed = second->Stats();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsTypedRetryLater(shed.status())) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("router at capacity"),
            std::string::npos)
      << shed.status().ToString();
  // Read once, right after the reply: the shed is counted before the
  // RETRY_LATER line leaves the router.
  EXPECT_EQ(router->stats().connections_shed, 1);
  router->Shutdown();
}

TEST(RouterE2E, OversizedFrameGetsTypedErrorThenClose) {
  NavRouterOptions options;
  options.max_frame_bytes = 1024;
  std::unique_ptr<NavRouter> router = StartBareRouter(options);
  std::unique_ptr<NavClient> client = ConnectBare(*router, WireProto::kBinary);
  ASSERT_NE(client, nullptr);

  // A binary frame declaring ~4 KiB against a 1 KiB cap: one typed
  // BAD_REQUEST, then the router closes instead of buffering.
  auto reply = client->Query(std::string(4096, 'x'));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument)
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("exceeds"), std::string::npos)
      << reply.status().ToString();
  EXPECT_FALSE(client->Stats().ok())
      << "connection left open after oversized frame";
  NavRouterStats stats = router->stats();
  EXPECT_EQ(stats.protocol_errors, 1);
  EXPECT_EQ(stats.forwarded, 0);
  router->Shutdown();
}

TEST(RouterE2E, IdleConnectionReapedByTimerWheel) {
  NavRouterOptions options;
  options.idle_timeout_ms = 200;
  std::unique_ptr<NavRouter> router = StartBareRouter(options);
  auto start = std::chrono::steady_clock::now();
  std::unique_ptr<NavClient> idle = ConnectBare(*router);
  ASSERT_NE(idle, nullptr);

  // A connection that never sends a byte is admitted, then closed by the
  // idle TTL.
  auto await_open = [&](int64_t want) {
    for (int i = 0; i < 5000; ++i) {
      if (router->stats().connections_open == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  ASSERT_TRUE(await_open(1)) << "connection never admitted";
  ASSERT_TRUE(await_open(0)) << "idle connection never reaped";
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(waited.count(), 100) << "reaped before the idle deadline";
  EXPECT_FALSE(idle->Stats().ok()) << "reaped connection still answers";
  router->Shutdown();
}

}  // namespace
}  // namespace bionav
