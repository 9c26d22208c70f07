#ifndef BIONAV_ROUTER_ROUTED_CLIENT_H_
#define BIONAV_ROUTER_ROUTED_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.h"
#include "server/nav_client.h"
#include "util/status.h"

namespace bionav {

struct RoutedNavClientOptions {
  /// Options applied to every connection (proxy and backends).
  NavClientOptions client;
};

/// Client-side routing: learns the ring from the proxy once, then sends
/// QUERY straight to the owning shard and session ops straight to the
/// shard that answered the QUERY — the proxy relay hop disappears from
/// every request that goes direct. The proxy stays the fallback for
/// everything the client cannot place (unknown token, unhealthy or
/// unreachable backend, stale topology): correctness never depends on the
/// client's map being fresh, only the fast path does.
class RoutedNavClient {
 public:
  /// Connects to the routing proxy, fetches the topology, and prepares
  /// (lazy) direct connections to the backends.
  static Result<std::unique_ptr<RoutedNavClient>> Connect(
      const std::string& proxy_host, int proxy_port,
      RoutedNavClientOptions options = RoutedNavClientOptions());

  RoutedNavClient(const RoutedNavClient&) = delete;
  RoutedNavClient& operator=(const RoutedNavClient&) = delete;

  /// Typed ops, mirror NavClient's wrappers. QUERY routes by normalized
  /// key; session ops follow the token's learned pin.
  Result<NavClient::QueryReply> Query(const std::string& query);
  Result<std::vector<NavNodeId>> Expand(const std::string& token,
                                        NavNodeId node);
  Result<NavClient::BatchExpandReply> ExpandMany(
      const std::string& token, const std::vector<NavNodeId>& nodes);
  Result<NavClient::ShowReply> ShowResults(const std::string& token,
                                           NavNodeId node,
                                           uint64_t retstart = 0,
                                           uint64_t retmax = 0);
  Result<bool> Backtrack(const std::string& token);
  Result<NavClient::FindReply> Find(const std::string& token,
                                    ConceptId concept_id);
  Result<std::string> View(const std::string& token, int depth = 100);
  Status CloseSession(const std::string& token);

  /// Fleet STATS, always from the proxy (it owns the rollup).
  Result<JsonValue> Stats();

  /// Re-fetches the topology from the proxy and rebuilds the ring.
  Status RefreshTopology();

  /// Current topology snapshot (test/bench introspection).
  const FleetTopology& topology() const { return topology_; }

  /// Requests served directly by a backend vs relayed via the proxy.
  int64_t direct_calls() const { return direct_calls_; }
  int64_t proxied_calls() const { return proxied_calls_; }

 private:
  RoutedNavClient(std::string proxy_host, int proxy_port,
                  RoutedNavClientOptions options)
      : proxy_host_(std::move(proxy_host)),
        proxy_port_(proxy_port),
        options_(std::move(options)) {}

  /// The direct connection for a backend id, dialing if needed. Nullptr
  /// when the backend is unhealthy/draining in the last topology, or
  /// dialing fails (callers fall back to the proxy).
  NavClient* BackendFor(const std::string& id);

  /// The proxy connection, redialing if needed.
  Result<NavClient*> Proxy();

  /// Runs `op` against the token's pinned backend, falling back to the
  /// proxy (and refreshing the topology) when the pin is missing or the
  /// direct call fails at transport level.
  template <typename Reply>
  Result<Reply> SessionOp(
      const std::string& token,
      const std::function<Result<Reply>(NavClient*)>& op);

  /// Marks a backend's connection dead and refreshes the topology —
  /// the reaction to a transport-level direct-call failure.
  void DropBackend(const std::string& id);

  std::string proxy_host_;
  int proxy_port_ = 0;
  RoutedNavClientOptions options_;

  std::unique_ptr<NavClient> proxy_;
  FleetTopology topology_;
  std::unique_ptr<HashRing> ring_;
  std::unordered_map<std::string, std::unique_ptr<NavClient>> backends_;
  /// token -> backend id that answered its QUERY.
  std::unordered_map<std::string, std::string> pins_;

  int64_t direct_calls_ = 0;
  int64_t proxied_calls_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_ROUTER_ROUTED_CLIENT_H_
