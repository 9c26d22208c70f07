#include "router/routed_client.h"

#include <utility>

#include "cache/query_artifacts.h"

namespace bionav {

namespace {

/// The connection itself failed (vs a typed server-side answer): the only
/// failures that justify dropping a direct connection and re-routing.
bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Result<std::unique_ptr<RoutedNavClient>> RoutedNavClient::Connect(
    const std::string& proxy_host, int proxy_port,
    RoutedNavClientOptions options) {
  std::unique_ptr<RoutedNavClient> client(
      new RoutedNavClient(proxy_host, proxy_port, std::move(options)));
  Result<NavClient*> proxy = client->Proxy();
  if (!proxy.ok()) return proxy.status();
  // Topology failure is not fatal: against a bare NavServer (or a router
  // predating TOPOLOGY) the client simply stays proxied-only — the direct
  // path is an optimization, never a correctness dependency.
  (void)client->RefreshTopology();
  return client;
}

Status RoutedNavClient::RefreshTopology() {
  Result<NavClient*> proxy = Proxy();
  if (!proxy.ok()) return proxy.status();
  Result<JsonValue> response = proxy.ValueOrDie()->Topology();
  if (!response.ok()) {
    if (IsTransportFailure(response.status())) proxy_.reset();
    return response.status();
  }
  // The typed step checks every member: a port in 1-65535, vnodes within
  // int32 and at least 1, the seed a whole decimal uint64.
  Result<Response> reply =
      ReadResponse(RequestOp::kTopology, response.ValueOrDie());
  if (!reply.ok()) return reply.status();
  FleetTopology parsed = std::move(reply.ValueOrDie().topology);
  // Same geometry + same membership => the client's ring agrees with the
  // router's about every key's owner, with no per-request coordination.
  HashRingOptions ring_options;
  ring_options.vnodes = parsed.vnodes;
  ring_options.seed = parsed.seed;
  auto ring = std::make_unique<HashRing>(ring_options);
  std::vector<std::string> ids;
  for (const TopologyBackend& backend : parsed.backends) {
    ids.push_back(backend.id);
  }
  ring->AddBackends(ids);
  // Keep only connections whose backend is still dial-worthy.
  for (auto it = backends_.begin(); it != backends_.end();) {
    bool keep = false;
    for (const TopologyBackend& backend : parsed.backends) {
      if (backend.id == it->first && !backend.draining &&
          backend.state == "healthy") {
        keep = true;
      }
    }
    it = keep ? std::next(it) : backends_.erase(it);
  }
  topology_ = std::move(parsed);
  ring_ = std::move(ring);
  return Status::OK();
}

Result<NavClient*> RoutedNavClient::Proxy() {
  if (proxy_ != nullptr) return proxy_.get();
  Result<std::unique_ptr<NavClient>> connected =
      NavClient::Connect(proxy_host_, proxy_port_, options_.client);
  if (!connected.ok()) return connected.status();
  proxy_ = connected.TakeValue();
  return proxy_.get();
}

NavClient* RoutedNavClient::BackendFor(const std::string& id) {
  auto it = backends_.find(id);
  if (it != backends_.end()) return it->second.get();
  for (const TopologyBackend& backend : topology_.backends) {
    if (backend.id != id) continue;
    if (backend.draining || backend.state != "healthy") return nullptr;
    Result<std::unique_ptr<NavClient>> connected =
        NavClient::Connect(backend.host, backend.port, options_.client);
    if (!connected.ok()) return nullptr;
    return (backends_[id] = connected.TakeValue()).get();
  }
  return nullptr;
}

void RoutedNavClient::DropBackend(const std::string& id) {
  backends_.erase(id);
  // The fleet moved under us (ejection, restart, membership change):
  // re-learn the ring so later requests route against the fresh
  // generation instead of failing into the proxy forever.
  (void)RefreshTopology();
}

Result<NavClient::QueryReply> RoutedNavClient::Query(
    const std::string& query) {
  if (ring_ != nullptr && !ring_->empty()) {
    const std::string owner = ring_->OwnerOf(NormalizeQueryKey(query));
    NavClient* backend = BackendFor(owner);
    if (backend != nullptr) {
      Result<NavClient::QueryReply> reply = backend->Query(query);
      if (reply.ok()) {
        ++direct_calls_;
        pins_[reply.ValueOrDie().token] = owner;
        return reply;
      }
      if (!IsTransportFailure(reply.status())) {
        // Typed server answer (shedding, bad query): the owner spoke, the
        // route was right — surface it.
        ++direct_calls_;
        return reply;
      }
      DropBackend(owner);
    }
  }
  Result<NavClient*> proxy = Proxy();
  if (!proxy.ok()) return proxy.status();
  ++proxied_calls_;
  Result<NavClient::QueryReply> reply = proxy.ValueOrDie()->Query(query);
  if (!reply.ok() && IsTransportFailure(reply.status())) proxy_.reset();
  return reply;
}

template <typename Reply>
Result<Reply> RoutedNavClient::SessionOp(
    const std::string& token,
    const std::function<Result<Reply>(NavClient*)>& op) {
  auto pin = pins_.find(token);
  if (pin != pins_.end()) {
    NavClient* backend = BackendFor(pin->second);
    if (backend != nullptr) {
      Result<Reply> reply = op(backend);
      if (reply.ok() || !IsTransportFailure(reply.status())) {
        ++direct_calls_;
        return reply;
      }
      DropBackend(pin->second);
    }
  }
  // Proxy fallback: the router recovers the shard from the token's prefix
  // even for sessions it never routed, so a direct session survives its
  // backend connection dying.
  Result<NavClient*> proxy = Proxy();
  if (!proxy.ok()) return proxy.status();
  ++proxied_calls_;
  Result<Reply> reply = op(proxy.ValueOrDie());
  if (!reply.ok() && IsTransportFailure(reply.status())) proxy_.reset();
  return reply;
}

Result<std::vector<NavNodeId>> RoutedNavClient::Expand(
    const std::string& token, NavNodeId node) {
  return SessionOp<std::vector<NavNodeId>>(
      token, [&](NavClient* client) { return client->Expand(token, node); });
}

Result<NavClient::BatchExpandReply> RoutedNavClient::ExpandMany(
    const std::string& token, const std::vector<NavNodeId>& nodes) {
  return SessionOp<NavClient::BatchExpandReply>(
      token,
      [&](NavClient* client) { return client->ExpandMany(token, nodes); });
}

Result<NavClient::ShowReply> RoutedNavClient::ShowResults(
    const std::string& token, NavNodeId node, uint64_t retstart,
    uint64_t retmax) {
  return SessionOp<NavClient::ShowReply>(token, [&](NavClient* client) {
    return client->ShowResults(token, node, retstart, retmax);
  });
}

Result<bool> RoutedNavClient::Backtrack(const std::string& token) {
  return SessionOp<bool>(
      token, [&](NavClient* client) { return client->Backtrack(token); });
}

Result<NavClient::FindReply> RoutedNavClient::Find(const std::string& token,
                                                   ConceptId concept_id) {
  return SessionOp<NavClient::FindReply>(token, [&](NavClient* client) {
    return client->Find(token, concept_id);
  });
}

Result<std::string> RoutedNavClient::View(const std::string& token,
                                          int depth) {
  return SessionOp<std::string>(
      token, [&](NavClient* client) { return client->View(token, depth); });
}

Status RoutedNavClient::CloseSession(const std::string& token) {
  Result<bool> closed = SessionOp<bool>(token, [&](NavClient* client) {
    Status status = client->CloseSession(token);
    if (!status.ok()) return Result<bool>(status);
    return Result<bool>(true);
  });
  pins_.erase(token);
  return closed.ok() ? Status::OK() : closed.status();
}

Result<JsonValue> RoutedNavClient::Stats() {
  Result<NavClient*> proxy = Proxy();
  if (!proxy.ok()) return proxy.status();
  Result<JsonValue> stats = proxy.ValueOrDie()->Stats();
  if (!stats.ok() && IsTransportFailure(stats.status())) proxy_.reset();
  return stats;
}

}  // namespace bionav
