// End-to-end loopback tests of the navigation service: a NavServer on an
// ephemeral port over a small paper workload, driven by NavClient. The
// central assertion is cost equality — the full oracle navigation run over
// the wire (QUERY -> FIND/EXPAND loop -> SHOWRESULTS -> CLOSE) reaches the
// navigation cost of the same session run in-process via Workload — plus
// admission-control shedding and graceful shutdown.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

/// Small paper workload (same scale as workload_parallel_test — a few
/// seconds to build, shared across all tests in this file).
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

struct WireOracleOutcome {
  int expand_actions = 0;
  int revealed_concepts = 0;
  int showresults_citations = 0;
  size_t result_size = 0;
  int navigation_cost() const { return expand_actions + revealed_concepts; }
};

/// The paper's oracle user, speaking the wire protocol: expand the target's
/// component until the target concept is visible, then SHOWRESULTS on it.
WireOracleOutcome RunWireOracle(NavClient& client, const std::string& keyword,
                                ConceptId target) {
  WireOracleOutcome out;
  auto opened = client.Query(keyword);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  const std::string token = opened.ValueOrDie().token;
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
                out.showresults_citations)
          << "SHOWRESULTS total disagrees with FIND distinct";
    }
  }
  EXPECT_TRUE(client.CloseSession(token).ok());
  return out;
}

TEST(NavServerE2E, WireOracleMatchesInProcessWorkload) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();

  NavServerOptions options;
  options.threads = 4;
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // The reference: the identical oracle sessions served in-process.
  WorkloadRunResult reference = w.Run(WorkloadRunOptions());
  ASSERT_EQ(reference.sessions.size(), w.num_queries());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NavClient& client = *connected.ValueOrDie();

  for (size_t i = 0; i < w.num_queries(); ++i) {
    const GeneratedQuery& q = w.query(i);
    WireOracleOutcome wire = RunWireOracle(client, q.spec.keyword, q.target);
    const NavigationMetrics& ref = reference.sessions[i].metrics;
    EXPECT_EQ(wire.expand_actions, ref.expand_actions) << q.spec.name;
    EXPECT_EQ(wire.revealed_concepts, ref.revealed_concepts) << q.spec.name;
    EXPECT_EQ(wire.navigation_cost(), ref.navigation_cost()) << q.spec.name;
    EXPECT_EQ(wire.showresults_citations, ref.showresults_citations)
        << q.spec.name;
  }

  NavServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions.created,
            static_cast<int64_t>(w.num_queries()));
  EXPECT_EQ(stats.connections_shed, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
  server.Shutdown();
}

TEST(NavServerE2E, ConcurrentClientsReachIdenticalCosts) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();

  NavServerOptions options;
  options.threads = 4;
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  WorkloadRunResult reference = w.Run(WorkloadRunOptions());

  // One client thread per query, all concurrently against one server.
  std::vector<WireOracleOutcome> outcomes(w.num_queries());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < w.num_queries(); ++i) {
      threads.emplace_back([&, i] {
        auto connected = NavClient::Connect("127.0.0.1", server.port());
        ASSERT_TRUE(connected.ok()) << connected.status().ToString();
        const GeneratedQuery& q = w.query(i);
        outcomes[i] =
            RunWireOracle(*connected.ValueOrDie(), q.spec.keyword, q.target);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (size_t i = 0; i < w.num_queries(); ++i) {
    EXPECT_EQ(outcomes[i].navigation_cost(),
              reference.sessions[i].metrics.navigation_cost())
        << w.query(i).spec.name;
  }
  server.Shutdown();
}

TEST(NavServerE2E, ProtocolErrorsAnswerTyped) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServer server(&w.hierarchy(), &eutils);
  ASSERT_TRUE(server.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  NavClient& client = *connected.ValueOrDie();

  // Unknown session token -> NotFound (UNKNOWN_SESSION on the wire).
  auto expanded = client.Expand("no-such-token", 0);
  EXPECT_FALSE(expanded.ok());
  EXPECT_EQ(expanded.status().code(), StatusCode::kNotFound);

  // Bad node on a live session -> op-level error, session stays usable.
  auto opened = client.Query(w.query(0).spec.keyword);
  ASSERT_TRUE(opened.ok());
  const std::string token = opened.ValueOrDie().token;
  EXPECT_FALSE(client.Expand(token, 999999).ok());
  EXPECT_TRUE(client.ShowResults(token, 0).ok());  // Root is visible.
  // A concept outside the hierarchy is simply not in the tree.
  for (ConceptId concept_id : {999999, -5}) {
    auto found = client.Find(token, concept_id);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_FALSE(found.ValueOrDie().found);
  }

  // Malformed line on a raw socket: the server answers BAD_REQUEST and
  // keeps serving the connection.
  Request stats_request;
  stats_request.op = RequestOp::kStats;
  auto raw = client.CallRaw(stats_request);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw.ValueOrDie().BoolOr("ok", false));

  EXPECT_TRUE(client.CloseSession(token).ok());
  EXPECT_GE(server.stats().requests, 4);
  server.Shutdown();
}

TEST(NavServerE2E, BinaryWireOracleMatchesJsonAndInProcess) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();

  NavServerOptions options;
  options.threads = 4;
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  WorkloadRunResult reference = w.Run(WorkloadRunOptions());

  // The same oracle sessions over both encodings against one server: the
  // wire format must be invisible to navigation outcomes.
  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    NavClientOptions client_options;
    client_options.proto = proto;
    auto connected =
        NavClient::Connect("127.0.0.1", server.port(), client_options);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    NavClient& client = *connected.ValueOrDie();
    EXPECT_EQ(client.proto(), proto);

    for (size_t i = 0; i < w.num_queries(); ++i) {
      const GeneratedQuery& q = w.query(i);
      WireOracleOutcome wire = RunWireOracle(client, q.spec.keyword, q.target);
      const NavigationMetrics& ref = reference.sessions[i].metrics;
      EXPECT_EQ(wire.expand_actions, ref.expand_actions)
          << WireProtoName(proto) << ": " << q.spec.name;
      EXPECT_EQ(wire.revealed_concepts, ref.revealed_concepts)
          << WireProtoName(proto) << ": " << q.spec.name;
      EXPECT_EQ(wire.navigation_cost(), ref.navigation_cost())
          << WireProtoName(proto) << ": " << q.spec.name;
      EXPECT_EQ(wire.showresults_citations, ref.showresults_citations)
          << WireProtoName(proto) << ": " << q.spec.name;
    }
  }
  EXPECT_EQ(server.stats().protocol_errors, 0);
  server.Shutdown();
}

TEST(NavServerE2E, MixedFleetServesBothProtocolsConcurrently) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();

  NavServerOptions options;
  options.threads = 4;
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  WorkloadRunResult reference = w.Run(WorkloadRunOptions());

  // Interleaved JSON and binary clients against one server, concurrently:
  // negotiation is per connection, so the fleet can be mixed freely.
  const int kClientsPerQuery = 2;  // One JSON, one binary.
  const size_t total = w.num_queries() * kClientsPerQuery;
  std::vector<WireOracleOutcome> outcomes(total);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < total; ++c) {
      threads.emplace_back([&, c] {
        NavClientOptions client_options;
        client_options.proto =
            c % 2 == 0 ? WireProto::kJson : WireProto::kBinary;
        auto connected =
            NavClient::Connect("127.0.0.1", server.port(), client_options);
        ASSERT_TRUE(connected.ok()) << connected.status().ToString();
        const GeneratedQuery& q = w.query(c / kClientsPerQuery);
        outcomes[c] =
            RunWireOracle(*connected.ValueOrDie(), q.spec.keyword, q.target);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t c = 0; c < total; ++c) {
    EXPECT_EQ(outcomes[c].navigation_cost(),
              reference.sessions[c / kClientsPerQuery].metrics
                  .navigation_cost())
        << (c % 2 == 0 ? "json" : "binary") << " client " << c;
  }
  EXPECT_EQ(server.stats().protocol_errors, 0);
  server.Shutdown();
}

TEST(NavServerE2E, TemplatesRenderOncePerProtocolAcrossSessions) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServer server(&w.hierarchy(), &eutils);
  ASSERT_TRUE(server.Start().ok());

  const GeneratedQuery& q = w.query(0);

  // Warm the bundle per encoding. Two sessions each: the first is the
  // cache miss (QUERY has no template until the bundle is shared), the
  // second touches every template the oracle session can reach — QUERY,
  // each EXPAND and the SHOWRESULTS — so the render set is saturated.
  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    NavClientOptions client_options;
    client_options.proto = proto;
    auto connected =
        NavClient::Connect("127.0.0.1", server.port(), client_options);
    ASSERT_TRUE(connected.ok());
    RunWireOracle(*connected.ValueOrDie(), q.spec.keyword, q.target);
    RunWireOracle(*connected.ValueOrDie(), q.spec.keyword, q.target);
  }

  const QueryArtifactCache* cache = server.session_manager().cache();
  ASSERT_NE(cache, nullptr);
  auto artifacts = cache->Peek(NormalizeQueryKey(q.spec.keyword));
  ASSERT_NE(artifacts, nullptr) << "query bundle not cached";
  ResponseTemplateStore::Stats warm = artifacts->templates.stats();
  ASSERT_GT(warm.renders[static_cast<int>(WireProto::kJson)], 0)
      << "JSON session rendered no templates; render-once is vacuous";
  ASSERT_GT(warm.renders[static_cast<int>(WireProto::kBinary)], 0)
      << "binary session rendered no templates; render-once is vacuous";
  ASSERT_GT(warm.bytes, 0u);

  // N more sessions per encoding: every cacheable response is now served
  // from the rendered templates — the render counts must not move.
  const int kSessions = 3;
  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    NavClientOptions client_options;
    client_options.proto = proto;
    auto connected =
        NavClient::Connect("127.0.0.1", server.port(), client_options);
    ASSERT_TRUE(connected.ok());
    for (int s = 0; s < kSessions; ++s) {
      RunWireOracle(*connected.ValueOrDie(), q.spec.keyword, q.target);
    }
  }

  ResponseTemplateStore::Stats after = artifacts->templates.stats();
  EXPECT_EQ(after.renders[static_cast<int>(WireProto::kJson)],
            warm.renders[static_cast<int>(WireProto::kJson)])
      << "JSON templates re-rendered on warm sessions";
  EXPECT_EQ(after.renders[static_cast<int>(WireProto::kBinary)],
            warm.renders[static_cast<int>(WireProto::kBinary)])
      << "binary templates re-rendered on warm sessions";
  EXPECT_GT(after.hits, warm.hits)
      << "warm sessions never served from templates";
  EXPECT_EQ(after.bytes, warm.bytes);
  server.Shutdown();
}

TEST(NavServerE2E, AdmissionControlShedsBeyondLimit) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();

  NavServerOptions options;
  options.threads = 1;
  options.max_connections = 1;  // Admission limit: one live connection.
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  // Prove the first connection's handler is live.
  ASSERT_TRUE(first.ValueOrDie()->Stats().ok());

  // The second connection must be shed with RETRY_LATER.
  auto second = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  auto shed = second.ValueOrDie()->Stats();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(shed.status().message().find("RETRY_LATER"), std::string::npos)
      << shed.status().ToString();

  EXPECT_EQ(server.stats().connections_shed, 1);

  // Dropping the first connection frees the slot; a retry succeeds.
  first.ValueOrDie().reset();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    auto retry = NavClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(retry.ok());
    admitted = retry.ValueOrDie()->Stats().ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted) << "slot never freed after disconnect";
  server.Shutdown();
}

TEST(NavServerE2E, GracefulShutdownDrainsAndRefusesNewWork) {
  const Workload& w = SmallWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServer server(&w.hierarchy(), &eutils);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto connected = NavClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(connected.ok());
  ASSERT_TRUE(connected.ValueOrDie()->Stats().ok());

  server.Shutdown();
  server.Shutdown();  // Idempotent.

  // The listener is gone: new connections fail outright.
  EXPECT_FALSE(NavClient::Connect("127.0.0.1", port).ok());
}

}  // namespace
}  // namespace bionav
