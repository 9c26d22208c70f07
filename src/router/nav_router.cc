#include "router/nav_router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "cache/query_artifacts.h"
#include "core/json_export.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bionav {

namespace {

constexpr size_t kNoBackend = static_cast<size_t>(-1);

/// Success peek without a full decode: a binary response body is
/// [version][flags][op] with flags bit0 = ok; a JSON response line always
/// opens {"v":1,"ok":... (WireResponse emits every reply, errors included,
/// with the members in that order). Only non-OK frames and QUERY replies
/// pay for a real decode.
bool PeekResponseOk(WireProto proto, const std::string& frame) {
  if (proto == WireProto::kBinary) {
    return frame.size() >= 2 &&
           (static_cast<unsigned char>(frame[1]) & 1) != 0;
  }
  return frame.compare(0, 16, "{\"v\":1,\"ok\":true") == 0;
}

/// Full typed decode of the reply to `op`, for the frames that need field
/// access (pin learning, error typing).
Result<Response> DecodeReply(WireProto proto, std::string_view frame,
                             RequestOp op) {
  Result<JsonValue> doc = DecodeResponse(proto, frame);
  if (!doc.ok()) return doc.status();
  return ReadResponse(op, doc.ValueOrDie());
}

/// Re-frames a relayed payload for the wire: binary frames regain their
/// magic + length prefix, JSON lines their terminator.
void AppendWireFrame(std::string* out, WireProto proto,
                     std::string_view payload) {
  if (proto == WireProto::kBinary) {
    out->push_back(static_cast<char>(kBinaryFrameMagic));
    AppendU32LE(out, static_cast<uint32_t>(payload.size()));
    out->append(payload.data(), payload.size());
    return;
  }
  out->append(payload.data(), payload.size());
  out->push_back('\n');
}

Counter* ForwardedCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_router_forwarded_total", "Requests forwarded to backends");
  return counter;
}

Counter* RetryLaterCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_router_retry_later_total",
      "Requests answered RETRY_LATER by the router");
  return counter;
}

Counter* UpstreamErrorsCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_router_upstream_errors_total",
      "Forwarded requests failed by upstream transport errors");
  return counter;
}

Counter* ProbeFailuresCounter() {
  static Counter* counter = GlobalMetrics().GetCounter(
      "bionav_router_probe_failures_total", "Health probes that failed");
  return counter;
}

Gauge* PinnedSessionsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_router_pinned_sessions", "Live session-token pins");
  return gauge;
}

Gauge* HealthyBackendsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_router_healthy_backends", "Backends currently healthy");
  return gauge;
}

LatencyHistogram* ForwardLatencyHistogram() {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_router_forward_us",
      "Forward-to-response latency through a backend");
  return hist;
}

}  // namespace

const char* BackendHealthName(BackendHealth health) {
  switch (health) {
    case BackendHealth::kHealthy: return "healthy";
    case BackendHealth::kUnhealthy: return "unhealthy";
    case BackendHealth::kHalfOpen: return "halfopen";
  }
  return "unhealthy";
}

NavRouter::NavRouter(std::vector<RouterBackend> backends,
                     NavRouterOptions options)
    : options_(std::move(options)),
      ring_(HashRingOptions{options_.ring_vnodes, options_.ring_seed}),
      frontend_(options_, "router",
                [this](const ConnPtr& conn, uint64_t seq, std::string& payload,
                       bool /*no_backlog*/) {
                  RouteFrame(conn, seq, payload);
                }),
      hot_keys_(HotKeyTracker::Options{options_.hot_key_halflife_ms,
                                       /*max_keys=*/4096, /*clock=*/{}}) {
  BIONAV_CHECK(!backends.empty()) << "NavRouter needs at least one backend";
  if (options_.max_upstream_queue_bytes < 4096) {
    options_.max_upstream_queue_bytes = 4096;
  }
  if (options_.upstream_pool_size < 1) options_.upstream_pool_size = 1;
  if (options_.health_failures_to_eject < 1) {
    options_.health_failures_to_eject = 1;
  }
  for (RouterBackend& backend : backends) {
    if (backend.id.empty()) {
      backend.id = backend.host + ":" + std::to_string(backend.port);
    }
    BIONAV_CHECK(backend_index_by_id_.count(backend.id) == 0)
        << "duplicate backend id '" << backend.id << "'";
    backend_index_by_id_.emplace(backend.id, backends_.size());
    auto state = std::make_unique<BackendState>();
    state->config = backend;
    backends_.push_back(std::move(state));
  }
  std::vector<std::string> ids;
  for (const auto& backend : backends_) ids.push_back(backend->config.id);
  ring_.AddBackends(ids);
}

Status NavRouter::Start() {
  Status ring = CheckRingSize(options_.ring_vnodes, backends_.size());
  if (!ring.ok()) return ring;
  // Per-loop state is sized before the loops start taking connections.
  loop_upstreams_.assign(frontend_.num_loops(), {});
  size_t slots = backends_.size() * static_cast<size_t>(kNumWireProtos) *
                 static_cast<size_t>(options_.upstream_pool_size);
  for (auto& pool : loop_upstreams_) pool.resize(slots);
  probes_.assign(backends_.size(), nullptr);
  RefreshHealthyGauge();

  Status started = frontend_.Start();
  if (!started.ok()) return started;
  if (options_.health_interval_ms > 0) {
    frontend_.loop(0)->RunInLoop([this] { ArmHealthTimer(); });
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void NavRouter::RouteFrame(const ConnPtr& conn, uint64_t seq,
                           const std::string& payload) {
  Request storage;  // Owns the decoded strings on the JSON path.
  RequestView view;
  std::string error_message;
  WireError parse_error =
      DecodeRequest(conn->proto, payload, &storage, &view, &error_message);
  if (parse_error != WireError::kNone) {
    // The router rejects unparsable frames itself — a typed error without
    // a backend round trip, and no garbage ever reaches a shard.
    frontend_.CountProtocolError();
    frontend_.Complete(conn, seq,
                    WireResponse::Error(conn->proto, parse_error,
                                        error_message));
    return;
  }

  switch (view.op) {
    case RequestOp::kStats:
      frontend_.Complete(conn, seq, BuildAggregatedStats(conn->proto));
      return;
    case RequestOp::kMetrics:
      frontend_.Complete(
          conn, seq, MetricsReply(conn->proto, GlobalMetrics().ToPrometheusText()));
      return;
    case RequestOp::kQuery: {
      int chosen = ChooseQueryBackend(NormalizeQueryKey(view.query));
      if (chosen < 0) {
        AnswerRetryLater(conn, seq, kNoBackend, "all backends draining");
        return;
      }
      size_t backend = static_cast<size_t>(chosen);
      if (backends_[backend]->health.load(std::memory_order_acquire) !=
          static_cast<int>(BackendHealth::kHealthy)) {
        AnswerRetryLater(conn, seq, backend,
                         "shard '" + backends_[backend]->config.id +
                             "' is down, retry later");
        return;
      }
      ForwardToBackend(conn, seq, backend, view, payload);
      return;
    }
    case RequestOp::kTopology:
      frontend_.Complete(conn, seq, BuildTopologyFrame(conn->proto));
      return;
    case RequestOp::kFetchArtifact: {
      // Strict owner routing: the shard asking is, by construction, a
      // non-owner holding the key — spreading or remapping here would
      // bounce the fetch back to a replica that also lacks the bundle.
      int chosen = ChooseOwnerBackend(NormalizeQueryKey(view.query));
      if (chosen < 0) {
        AnswerRetryLater(conn, seq, kNoBackend, "all backends draining");
        return;
      }
      size_t backend = static_cast<size_t>(chosen);
      if (backends_[backend]->health.load(std::memory_order_acquire) !=
          static_cast<int>(BackendHealth::kHealthy)) {
        AnswerRetryLater(conn, seq, backend,
                         "shard '" + backends_[backend]->config.id +
                             "' is down, retry later");
        return;
      }
      ForwardToBackend(conn, seq, backend, view, payload);
      return;
    }
    default: {
      size_t backend = ChooseSessionBackend(view.token);
      if (backends_[backend]->health.load(std::memory_order_acquire) !=
          static_cast<int>(BackendHealth::kHealthy)) {
        // The session's shard is down. Its state lives only there, so the
        // honest answer is a typed retry — not a silent remap that would
        // surface UNKNOWN_SESSION from an innocent shard.
        AnswerRetryLater(conn, seq, backend,
                         "shard '" + backends_[backend]->config.id +
                             "' is down, retry later");
        return;
      }
      ForwardToBackend(conn, seq, backend, view, payload);
      return;
    }
  }
}

int NavRouter::ChooseQueryBackend(std::string_view query_key) const {
  if (options_.replicas > 1) {
    double qps = hot_keys_.Record(std::string(query_key));
    if (qps >= options_.replicate_above_qps) {
      // Hot slice: round-robin across the first `replicas` ring-successors
      // that could actually serve (healthy and not draining). Unlike the
      // cold path below, health *does* gate membership here — a replica is
      // an optimization, and a dead one has no slice state worth honoring.
      // The owner stays in the set, so replication never makes an owner
      // colder; non-owner replicas pull the bundle via FETCH_ARTIFACT on
      // first touch instead of rebuilding it.
      std::vector<size_t> replica_set;
      for (const std::string& id :
           ring_.PreferenceOrder(query_key,
                                 static_cast<size_t>(options_.replicas))) {
        const size_t index = backend_index_by_id_.at(id);
        const BackendState& backend = *backends_[index];
        if (backend.draining.load(std::memory_order_acquire)) continue;
        if (backend.health.load(std::memory_order_acquire) !=
            static_cast<int>(BackendHealth::kHealthy)) {
          continue;
        }
        replica_set.push_back(index);
      }
      if (!replica_set.empty()) {
        uint64_t turn = hot_rr_.fetch_add(1, std::memory_order_relaxed);
        return static_cast<int>(replica_set[turn % replica_set.size()]);
      }
      // No healthy replica: fall through to the strict walk so the owner
      // slice still answers its honest RETRY_LATER.
    }
  }
  return ChooseOwnerBackend(query_key);
}

int NavRouter::ChooseOwnerBackend(std::string_view query_key) const {
  // Owner first, then the clockwise walk — a draining backend stops
  // receiving *new* sessions while its pinned ones finish elsewhere in
  // ForwardToBackend. Health is deliberately not part of the walk: a dead
  // owner's slice answers RETRY_LATER instead of silently migrating, so a
  // flapping shard cannot smear its keys' artifacts across the fleet.
  for (const std::string& id : ring_.PreferenceOrder(query_key)) {
    const BackendState& backend = *backends_[backend_index_by_id_.at(id)];
    if (backend.draining.load(std::memory_order_acquire)) continue;
    return static_cast<int>(backend_index_by_id_.at(id));
  }
  return -1;
}

size_t NavRouter::ChooseSessionBackend(std::string_view token) const {
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    auto it = pins_.find(std::string(token));
    if (it != pins_.end()) return it->second;
  }
  // No pin — but when the fleet was spawned with per-shard token prefixes
  // (bionav_route auto mode passes --token-prefix "<id>-"), the token
  // itself names its minting shard as "<backend-id>-s<ordinal>". Recover
  // it: a session created over a *direct* client-routed connection was
  // never pinned here, yet must still reach its shard when the client
  // falls back to proxying.
  size_t end = token.size();
  while (end > 0 && token[end - 1] >= '0' && token[end - 1] <= '9') --end;
  if (end >= 2 && end < token.size() && token[end - 1] == 's' &&
      token[end - 2] == '-') {
    auto it = backend_index_by_id_.find(std::string(token.substr(0, end - 2)));
    if (it != backend_index_by_id_.end()) return it->second;
  }
  // Last resort (foreign prefix, stale client token): the ring owner of
  // the token answers authoritatively — usually with UNKNOWN_SESSION.
  return backend_index_by_id_.at(ring_.OwnerOf(token));
}

void NavRouter::AnswerRetryLater(const ConnPtr& conn, uint64_t seq,
                                 size_t backend_index,
                                 std::string_view message) {
  retry_later_.fetch_add(1, std::memory_order_relaxed);
  RetryLaterCounter()->Increment();
  if (backend_index != kNoBackend) {
    backends_[backend_index]->retry_later.fetch_add(
        1, std::memory_order_relaxed);
  }
  frontend_.Complete(conn, seq,
                  WireResponse::Error(conn->proto, WireError::kRetryLater,
                                      message));
}

void NavRouter::ForwardToBackend(const ConnPtr& conn, uint64_t seq,
                                 size_t backend_index, const RequestView& view,
                                 const std::string& payload) {
  UpPtr up =
      GetUpstream(conn->loop_index, backend_index, conn->proto, conn->id);
  if (up == nullptr) {
    AnswerRetryLater(conn, seq, backend_index,
                     "shard '" + backends_[backend_index]->config.id +
                         "' unavailable, retry later");
    return;
  }
  if (up->outbox.size() - up->out_off + payload.size() >
      options_.max_upstream_queue_bytes) {
    // Per-backend bounded write queue: shed instead of buffering without
    // bound against a stalled shard.
    AnswerRetryLater(conn, seq, backend_index,
                     "shard '" + backends_[backend_index]->config.id +
                         "' write queue full, retry later");
    return;
  }
  AppendWireFrame(&up->outbox, conn->proto, payload);
  Pending pending;
  pending.conn = conn;
  pending.seq = seq;
  pending.op = view.op;
  pending.token = std::string(view.token);
  pending.sent_us = SteadyNowUs();
  up->pending.push_back(std::move(pending));
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  ForwardedCounter()->Increment();
  backends_[backend_index]->forwarded.fetch_add(1, std::memory_order_relaxed);
  if (!up->connecting) {
    FlushUpstream(up);
  } else {
    UpdateUpstreamInterest(up);
  }
}

// ---------------------------------------------------------------------------
// Upstream pool
// ---------------------------------------------------------------------------

size_t NavRouter::UpstreamSlot(size_t backend_index, WireProto proto,
                               uint64_t conn_id) const {
  size_t pool = static_cast<size_t>(options_.upstream_pool_size);
  // Slot affinity by downstream connection id: all of one connection's
  // requests to a given backend ride the same upstream, preserving that
  // connection's request order through the shard.
  return (backend_index * static_cast<size_t>(kNumWireProtos) +
          static_cast<size_t>(proto)) *
             pool +
         static_cast<size_t>(conn_id % pool);
}

NavRouter::UpPtr NavRouter::GetUpstream(size_t loop_index,
                                        size_t backend_index, WireProto proto,
                                        uint64_t conn_id) {
  UpPtr& slot =
      loop_upstreams_[loop_index][UpstreamSlot(backend_index, proto,
                                               conn_id)];
  if (slot == nullptr || slot->closed) {
    slot = CreateUpstream(loop_index, backend_index, proto);
  }
  return slot;
}

NavRouter::UpPtr NavRouter::CreateUpstream(size_t loop_index,
                                           size_t backend_index,
                                           WireProto proto) {
  const RouterBackend& config = backends_[backend_index]->config;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  bool connecting = false;
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) {
      connecting = true;
      break;
    }
    // Synchronous refusal (rare on loopback, but possible): counts toward
    // ejection like any transport failure.
    ::close(fd);
    RecordBackendFailure(backend_index);
    return nullptr;
  }

  UpPtr up = std::make_shared<Upstream>();
  up->backend_index = backend_index;
  up->proto = proto;
  up->loop_index = loop_index;
  up->fd = fd;
  up->connecting = connecting;
  if (proto == WireProto::kBinary) {
    up->outbox.assign(kBinaryPreamble, sizeof(kBinaryPreamble));
  }
  Status added = frontend_.loop(loop_index)->Add(
      fd, EventLoop::kReadable | EventLoop::kWritable,
      [this, up](uint32_t events) { OnUpstreamEvent(up, events); });
  if (!added.ok()) {
    ::close(fd);
    return nullptr;
  }
  up->reading = true;
  up->want_write = true;
  if (connecting && options_.connect_timeout_ms > 0) {
    up->connect_timer = frontend_.loop(loop_index)->AddTimer(
        options_.connect_timeout_ms, [this, up] {
          up->connect_timer = kInvalidTimer;
          if (!up->closed && up->connecting) {
            FailUpstream(up, WireError::kRetryLater,
                         "backend connect timed out", true);
          }
        });
  }
  return up;
}

void NavRouter::OnUpstreamEvent(const UpPtr& up, uint32_t events) {
  if (up->closed) return;
  if (events & EventLoop::kError) {
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(up->fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    FailUpstream(up, WireError::kRetryLater,
                 std::string("backend connection error: ") +
                     std::strerror(soerr != 0 ? soerr : ECONNRESET),
                 true);
    return;
  }
  if (events & EventLoop::kWritable) {
    if (up->connecting) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(up->fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        FailUpstream(up, WireError::kRetryLater,
                     std::string("backend connect failed: ") +
                         std::strerror(soerr),
                     true);
        return;
      }
      up->connecting = false;
      if (up->connect_timer != kInvalidTimer) {
        frontend_.loop(up->loop_index)->CancelTimer(up->connect_timer);
        up->connect_timer = kInvalidTimer;
      }
    }
    FlushUpstream(up);
    if (up->closed) return;
  }
  if (events & EventLoop::kReadable) ReadUpstream(up);
}

void NavRouter::FlushUpstream(const UpPtr& up) {
  while (up->out_off < up->outbox.size()) {
    ssize_t n = ::send(up->fd, up->outbox.data() + up->out_off,
                       up->outbox.size() - up->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      FailUpstream(up, WireError::kRetryLater,
                   std::string("backend send failed: ") +
                       std::strerror(errno),
                   true);
      return;
    }
    up->out_off += static_cast<size_t>(n);
  }
  if (up->out_off >= up->outbox.size()) {
    up->outbox.clear();
    up->out_off = 0;
  } else if (up->out_off > (64u << 10) &&
             up->out_off * 2 > up->outbox.size()) {
    up->outbox.erase(0, up->out_off);
    up->out_off = 0;
  }
  UpdateUpstreamInterest(up);
}

void NavRouter::UpdateUpstreamInterest(const UpPtr& up) {
  if (up->closed) return;
  bool want_write = up->connecting || up->out_off < up->outbox.size();
  bool want_read = true;  // Responses may arrive any time.
  if (want_read == up->reading && want_write == up->want_write) return;
  uint32_t events = (want_read ? EventLoop::kReadable : 0) |
                    (want_write ? EventLoop::kWritable : 0);
  frontend_.loop(up->loop_index)->Modify(up->fd, events);
  up->reading = want_read;
  up->want_write = want_write;
}

void NavRouter::ReadUpstream(const UpPtr& up) {
  char chunk[16384];
  bool peer_eof = false;
  for (int i = 0; i < 4; ++i) {
    ssize_t n = ::recv(up->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      std::string_view data(chunk, static_cast<size_t>(n));
      if (up->proto == WireProto::kBinary && !up->json_fallback &&
          !up->saw_first_byte) {
        up->saw_first_byte = true;
        // A '{' before any binary frame is the backend's pre-negotiation
        // JSON reply (accept-path shed or drain) — it will close next.
        if (data[0] == '{') up->json_fallback = true;
      }
      bool fed = (up->proto == WireProto::kJson || up->json_fallback)
                     ? up->decoder.Feed(data)
                     : up->bdecoder.Feed(data);
      if (!fed) break;  // Broken decoder; handled below.
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    FailUpstream(up, WireError::kRetryLater,
                 std::string("backend recv failed: ") + std::strerror(errno),
                 true);
    return;
  }

  if (up->json_fallback) {
    // The backend answered in JSON on a binary upstream: it shed or is
    // draining, and the typed error applies to everything queued here.
    std::string line;
    if (up->decoder.Next(&line)) {
      WireError error = WireError::kRetryLater;
      std::string message = "backend shed this connection";
      // A shed or drain line is an error reply, read alike for every op.
      Result<Response> reply =
          DecodeReply(WireProto::kJson, line, RequestOp::kQuery);
      if (reply.ok() && !reply.ValueOrDie().ok) {
        if (reply.ValueOrDie().error ==
            WireErrorName(WireError::kShuttingDown)) {
          error = WireError::kShuttingDown;
        }
        if (!reply.ValueOrDie().message.empty()) {
          message = reply.ValueOrDie().message;
        }
      }
      FailUpstream(up, error, message, false);
      return;
    }
  } else {
    std::string frame;
    while (!up->closed) {
      bool have = up->proto == WireProto::kBinary ? up->bdecoder.Next(&frame)
                                                  : up->decoder.Next(&frame);
      if (!have) break;
      if (frame.empty() && up->proto == WireProto::kJson) continue;
      HandleUpstreamFrame(up, frame);
    }
    if (up->closed) return;
    bool broken = up->proto == WireProto::kBinary ? up->bdecoder.broken()
                                                  : up->decoder.overflowed();
    if (broken) {
      FailUpstream(up, WireError::kInternal,
                   "malformed response from backend", true);
      return;
    }
  }
  if (peer_eof && !up->closed) {
    // An idle upstream the backend reaped is not a failure; one with
    // requests outstanding is.
    FailUpstream(up, WireError::kRetryLater, "backend closed connection",
                 !up->pending.empty());
  }
}

void NavRouter::HandleUpstreamFrame(const UpPtr& up,
                                    const std::string& frame) {
  if (up->pending.empty()) {
    // A response nothing asked for: the stream is out of sync.
    FailUpstream(up, WireError::kInternal,
                 "unsolicited response from backend", true);
    return;
  }
  Pending pending = std::move(up->pending.front());
  up->pending.pop_front();
  RecordBackendSuccess(up->backend_index);

  bool ok = PeekResponseOk(up->proto, frame);
  if (ok && pending.op == RequestOp::kQuery) {
    // Learn the new session's token→shard pin.
    Result<Response> reply = DecodeReply(up->proto, frame, pending.op);
    if (reply.ok() && reply.ValueOrDie().ok) {
      PinSession(reply.ValueOrDie().token, up->backend_index);
    }
  } else if (ok && pending.op == RequestOp::kClose) {
    UnpinSession(pending.token);
  } else if (!ok) {
    Result<Response> reply = DecodeReply(up->proto, frame, pending.op);
    if (reply.ok() && reply.ValueOrDie().error ==
                          WireErrorName(WireError::kUnknownSession)) {
      // The shard no longer knows the session (evicted, expired): the pin
      // is stale, drop it so a recreated token can re-place freely.
      UnpinSession(pending.token);
    }
  }
  ForwardLatencyHistogram()->Record(SteadyNowUs() - pending.sent_us);

  if (pending.conn == nullptr || pending.conn->closed) return;
  WireFrame response;
  AppendWireFrame(&response.head, up->proto, frame);
  frontend_.Complete(pending.conn, pending.seq, std::move(response));
}

void NavRouter::FailUpstream(const UpPtr& up, WireError error,
                             std::string_view message, bool count_failure) {
  if (up->closed) return;
  up->closed = true;
  EventLoop* loop = frontend_.loop(up->loop_index);
  if (up->connect_timer != kInvalidTimer) {
    loop->CancelTimer(up->connect_timer);
    up->connect_timer = kInvalidTimer;
  }
  loop->Remove(up->fd);
  ::close(up->fd);
  // Detach from the pool slot first: completions below can re-enter the
  // dispatch path and must get a fresh upstream, not this corpse.
  for (size_t s = 0; s < static_cast<size_t>(options_.upstream_pool_size);
       ++s) {
    UpPtr& candidate = loop_upstreams_[up->loop_index][UpstreamSlot(
        up->backend_index, up->proto, s)];
    if (candidate == up) candidate = nullptr;
  }
  if (count_failure) RecordBackendFailure(up->backend_index);
  std::deque<Pending> pending = std::move(up->pending);
  up->pending.clear();
  for (Pending& p : pending) {
    backends_[up->backend_index]->upstream_errors.fetch_add(
        1, std::memory_order_relaxed);
    UpstreamErrorsCounter()->Increment();
    if (p.conn == nullptr || p.conn->closed) continue;
    frontend_.Complete(p.conn, p.seq,
                    WireResponse::Error(p.conn->proto, error, message));
  }
}

// ---------------------------------------------------------------------------
// Session pins
// ---------------------------------------------------------------------------

void NavRouter::PinSession(const std::string& token, size_t backend_index) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  auto [it, inserted] = pins_.emplace(token, backend_index);
  if (!inserted) it->second = backend_index;
  if (inserted) PinnedSessionsGauge()->Add(1);
}

void NavRouter::UnpinSession(std::string_view token) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  if (pins_.erase(std::string(token)) > 0) PinnedSessionsGauge()->Add(-1);
}

// ---------------------------------------------------------------------------
// Health checking
// ---------------------------------------------------------------------------

void NavRouter::ArmHealthTimer() {
  if (frontend_.shutting_down()) return;
  frontend_.loop(0)->AddTimer(options_.health_interval_ms, [this] {
    RunProbes();
    ArmHealthTimer();
  });
}

void NavRouter::RunProbes() {
  if (frontend_.shutting_down()) return;
  int64_t now = SteadyNowMs();
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (probes_[i] != nullptr) continue;  // Previous probe still in flight.
    BackendState& backend = *backends_[i];
    int health = backend.health.load(std::memory_order_acquire);
    if (health == static_cast<int>(BackendHealth::kUnhealthy)) {
      if (now - backend.ejected_at_ms.load(std::memory_order_acquire) <
          options_.half_open_after_ms) {
        continue;  // Still cooling down.
      }
      backend.health.store(static_cast<int>(BackendHealth::kHalfOpen),
                           std::memory_order_release);
      RefreshHealthyGauge();
    }
    StartProbe(i);
  }
}

void NavRouter::StartProbe(size_t backend_index) {
  const RouterBackend& config = backends_[backend_index]->config;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return;
  }
  bool connecting = false;
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) {
      connecting = true;
      break;
    }
    ::close(fd);
    backends_[backend_index]->probes_failed.fetch_add(
        1, std::memory_order_relaxed);
    ProbeFailuresCounter()->Increment();
    RecordBackendFailure(backend_index);
    return;
  }
  ProbePtr probe = std::make_shared<Probe>();
  probe->backend_index = backend_index;
  probe->fd = fd;
  probe->connecting = connecting;
  Request stats;
  stats.op = RequestOp::kStats;
  probe->outbox = EncodeRequestFrame(WireProto::kJson, stats);
  Status added = frontend_.loop(0)->Add(
      fd, EventLoop::kReadable | EventLoop::kWritable,
      [this, probe](uint32_t events) { OnProbeEvent(probe, events); });
  if (!added.ok()) {
    ::close(fd);
    return;
  }
  if (options_.health_timeout_ms > 0) {
    probe->timeout_timer =
        frontend_.loop(0)->AddTimer(options_.health_timeout_ms, [this, probe] {
          probe->timeout_timer = kInvalidTimer;
          FinishProbe(probe, false, "");
        });
  }
  probes_[backend_index] = probe;
}

void NavRouter::OnProbeEvent(const ProbePtr& probe, uint32_t events) {
  if (probe->done) return;
  if (events & EventLoop::kError) {
    FinishProbe(probe, false, "");
    return;
  }
  if (events & EventLoop::kWritable) {
    if (probe->connecting) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(probe->fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        FinishProbe(probe, false, "");
        return;
      }
      probe->connecting = false;
    }
    while (probe->out_off < probe->outbox.size()) {
      ssize_t n = ::send(probe->fd, probe->outbox.data() + probe->out_off,
                         probe->outbox.size() - probe->out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        FinishProbe(probe, false, "");
        return;
      }
      probe->out_off += static_cast<size_t>(n);
    }
    if (probe->out_off >= probe->outbox.size()) {
      frontend_.loop(0)->Modify(probe->fd, EventLoop::kReadable);
    }
  }
  if (events & EventLoop::kReadable) {
    char chunk[16384];
    while (true) {
      ssize_t n = ::recv(probe->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        if (!probe->decoder.Feed(
                std::string_view(chunk, static_cast<size_t>(n)))) {
          FinishProbe(probe, false, "");
          return;
        }
        std::string line;
        if (probe->decoder.Next(&line)) {
          FinishProbe(probe, true, line);
          return;
        }
        if (static_cast<size_t>(n) < sizeof(chunk)) return;
        continue;
      }
      if (n == 0) {
        FinishProbe(probe, false, "");
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      FinishProbe(probe, false, "");
      return;
    }
  }
}

void NavRouter::FinishProbe(const ProbePtr& probe, bool success,
                            const std::string& response_line) {
  if (probe->done) return;
  probe->done = true;
  if (probe->timeout_timer != kInvalidTimer) {
    frontend_.loop(0)->CancelTimer(probe->timeout_timer);
    probe->timeout_timer = kInvalidTimer;
  }
  frontend_.loop(0)->Remove(probe->fd);
  ::close(probe->fd);
  probes_[probe->backend_index] = nullptr;

  BackendState& backend = *backends_[probe->backend_index];
  if (success) {
    Result<JsonValue> parsed = ParseJson(response_line);
    if (parsed.ok() && parsed.ValueOrDie().BoolOr("ok", false)) {
      const JsonValue& doc = parsed.ValueOrDie();
      BackendScrape scrape;
      scrape.valid = true;
      scrape.requests = doc.IntOr("requests", 0);
      scrape.bytes_rx = doc.IntOr("bytes_rx", 0);
      scrape.bytes_tx = doc.IntOr("bytes_tx", 0);
      if (const JsonValue* sessions = doc.Find("sessions")) {
        scrape.sessions_active = sessions->IntOr("active", 0);
        scrape.sessions_created = sessions->IntOr("created", 0);
      }
      if (const JsonValue* cache = doc.Find("cache")) {
        scrape.cache_hits = cache->IntOr("hits", 0);
        scrape.cache_misses = cache->IntOr("misses", 0);
        scrape.cache_builds = cache->IntOr("builds", 0);
        scrape.peer_fetch_hits = cache->IntOr("peer_fetch_hits", 0);
        scrape.peer_fetch_misses = cache->IntOr("peer_fetch_misses", 0);
      }
      scrape.raw = response_line;
      {
        std::lock_guard<std::mutex> lock(backend.scrape_mu);
        backend.scrape = std::move(scrape);
      }
      backend.probes_ok.fetch_add(1, std::memory_order_relaxed);
      RecordBackendSuccess(probe->backend_index);
      return;
    }
    // An ok:false STATS (the backend is draining) is a failed probe.
  }
  backend.probes_failed.fetch_add(1, std::memory_order_relaxed);
  ProbeFailuresCounter()->Increment();
  RecordBackendFailure(probe->backend_index);
}

void NavRouter::RecordBackendFailure(size_t backend_index) {
  BackendState& backend = *backends_[backend_index];
  int failures =
      backend.consecutive_failures.fetch_add(1, std::memory_order_acq_rel) +
      1;
  int health = backend.health.load(std::memory_order_acquire);
  if (health == static_cast<int>(BackendHealth::kHalfOpen)) {
    // The readmission probe failed: back to ejected, cooldown restarts.
    backend.health.store(static_cast<int>(BackendHealth::kUnhealthy),
                         std::memory_order_release);
    backend.ejected_at_ms.store(SteadyNowMs(), std::memory_order_release);
    RefreshHealthyGauge();
    BumpGeneration();
    return;
  }
  if (health == static_cast<int>(BackendHealth::kHealthy) &&
      failures >= options_.health_failures_to_eject) {
    backend.health.store(static_cast<int>(BackendHealth::kUnhealthy),
                         std::memory_order_release);
    backend.ejected_at_ms.store(SteadyNowMs(), std::memory_order_release);
    RefreshHealthyGauge();
    BumpGeneration();
  }
}

void NavRouter::RecordBackendSuccess(size_t backend_index) {
  BackendState& backend = *backends_[backend_index];
  backend.consecutive_failures.store(0, std::memory_order_release);
  int health = backend.health.load(std::memory_order_acquire);
  if (health != static_cast<int>(BackendHealth::kHealthy)) {
    backend.health.store(static_cast<int>(BackendHealth::kHealthy),
                         std::memory_order_release);
    RefreshHealthyGauge();
    BumpGeneration();
  }
}

void NavRouter::RefreshHealthyGauge() {
  int64_t healthy = 0;
  for (const std::unique_ptr<BackendState>& backend : backends_) {
    if (backend->health.load(std::memory_order_acquire) ==
        static_cast<int>(BackendHealth::kHealthy)) {
      ++healthy;
    }
  }
  HealthyBackendsGauge()->Set(healthy);
}

// ---------------------------------------------------------------------------
// Local answers
// ---------------------------------------------------------------------------

WireFrame NavRouter::BuildAggregatedStats(WireProto proto) const {
  NavRouterStats s = stats();
  std::string router_json =
      "{\"connections_accepted\":" + std::to_string(s.connections_accepted) +
      ",\"connections_shed\":" + std::to_string(s.connections_shed) +
      ",\"connections_open\":" + std::to_string(s.connections_open) +
      ",\"requests\":" + std::to_string(s.requests) +
      ",\"protocol_errors\":" + std::to_string(s.protocol_errors) +
      ",\"forwarded\":" + std::to_string(s.forwarded) +
      ",\"retry_later\":" + std::to_string(s.retry_later) +
      ",\"pinned_sessions\":" + std::to_string(s.pinned_sessions) +
      ",\"backends_total\":" + std::to_string(s.backends.size()) +
      ",\"healthy_backends\":" + std::to_string(s.healthy_backends) +
      ",\"bytes_rx\":" + std::to_string(s.bytes_rx) +
      ",\"bytes_tx\":" + std::to_string(s.bytes_tx) +
      ",\"generation\":" + std::to_string(s.generation) +
      ",\"io_threads\":" + std::to_string(frontend_.num_loops()) + "}";

  // Fleet rollup from the last scraped backend STATS. Scrapes refresh on
  // the probe cadence, so the sums lag live truth by at most one interval.
  int64_t scraped = 0, requests = 0, sessions_active = 0;
  int64_t sessions_created = 0, cache_hits = 0, cache_misses = 0;
  int64_t cache_builds = 0, peer_fetch_hits = 0, peer_fetch_misses = 0;
  int64_t bytes_rx = 0, bytes_tx = 0;
  std::vector<std::string> raw_scrapes(backends_.size());
  std::vector<std::string> qcache_json(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    std::lock_guard<std::mutex> lock(backends_[i]->scrape_mu);
    const BackendScrape& scrape = backends_[i]->scrape;
    if (!scrape.valid) continue;
    ++scraped;
    requests += scrape.requests;
    sessions_active += scrape.sessions_active;
    sessions_created += scrape.sessions_created;
    cache_hits += scrape.cache_hits;
    cache_misses += scrape.cache_misses;
    cache_builds += scrape.cache_builds;
    peer_fetch_hits += scrape.peer_fetch_hits;
    peer_fetch_misses += scrape.peer_fetch_misses;
    bytes_rx += scrape.bytes_rx;
    bytes_tx += scrape.bytes_tx;
    raw_scrapes[i] = scrape.raw;
    qcache_json[i] =
        "{\"hits\":" + std::to_string(scrape.cache_hits) +
        ",\"misses\":" + std::to_string(scrape.cache_misses) +
        ",\"builds\":" + std::to_string(scrape.cache_builds) +
        ",\"peer_fetch_hits\":" + std::to_string(scrape.peer_fetch_hits) +
        ",\"peer_fetch_misses\":" + std::to_string(scrape.peer_fetch_misses) +
        "}";
  }
  // artifact_builds is the fleet's duplicate-build signal: with peer fetch
  // on, it converges to the number of distinct query keys no matter how
  // many shards serve each key.
  std::string fleet_json =
      "{\"scraped\":" + std::to_string(scraped) +
      ",\"requests\":" + std::to_string(requests) +
      ",\"sessions_active\":" + std::to_string(sessions_active) +
      ",\"sessions_created\":" + std::to_string(sessions_created) +
      ",\"cache_hits\":" + std::to_string(cache_hits) +
      ",\"cache_misses\":" + std::to_string(cache_misses) +
      ",\"artifact_builds\":" + std::to_string(cache_builds) +
      ",\"peer_fetch_hits\":" + std::to_string(peer_fetch_hits) +
      ",\"peer_fetch_misses\":" + std::to_string(peer_fetch_misses) +
      ",\"bytes_rx\":" + std::to_string(bytes_rx) +
      ",\"bytes_tx\":" + std::to_string(bytes_tx) + "}";

  // Hot-key rollup: what the replication tier currently considers hot.
  std::vector<HotKeyTracker::HotKey> hot =
      hot_keys_.Hot(options_.replicate_above_qps);
  constexpr size_t kMaxHotKeysListed = 16;
  std::string hot_json =
      "{\"tracked\":" + std::to_string(hot_keys_.size()) +
      ",\"replicate_above\":" + std::to_string(options_.replicate_above_qps) +
      ",\"replicas\":" + std::to_string(options_.replicas) + ",\"keys\":[";
  for (size_t i = 0; i < hot.size() && i < kMaxHotKeysListed; ++i) {
    if (i > 0) hot_json += ",";
    hot_json += "{\"key\":\"" + JsonEscape(hot[i].key) +
                "\",\"qps\":" + std::to_string(hot[i].qps) + "}";
  }
  hot_json += "]}";

  std::string backends_json = "[";
  for (size_t i = 0; i < s.backends.size(); ++i) {
    const RouterBackendStats& b = s.backends[i];
    if (i > 0) backends_json += ",";
    backends_json +=
        "{\"id\":\"" + JsonEscape(b.id) + "\"" +
        ",\"state\":\"" + BackendHealthName(b.health) + "\"" +
        ",\"draining\":" + (b.draining ? "true" : "false") +
        ",\"forwarded\":" + std::to_string(b.forwarded) +
        ",\"upstream_errors\":" + std::to_string(b.upstream_errors) +
        ",\"retry_later\":" + std::to_string(b.retry_later) +
        ",\"pinned_sessions\":" + std::to_string(b.pinned_sessions) +
        ",\"probes_ok\":" + std::to_string(b.probes_ok) +
        ",\"probes_failed\":" + std::to_string(b.probes_failed) +
        ",\"qcache\":" +
        (qcache_json[i].empty() ? std::string("null") : qcache_json[i]) +
        ",\"stats\":" +
        (raw_scrapes[i].empty() ? std::string("null") : raw_scrapes[i]) + "}";
  }
  backends_json += "]";

  return WireResponse(proto, RequestOp::kStats)
      .Add("role", "router")
      .Add("router", RawJson{router_json})
      .Add("fleet", RawJson{fleet_json})
      .Add("hot_keys", RawJson{hot_json})
      .Add("backends", RawJson{backends_json})
      .Add("metrics", RawJson{GlobalMetrics().ToJson()})
      .Finish();
}

WireFrame NavRouter::BuildTopologyFrame(WireProto proto) const {
  std::string backends_json = "[";
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& backend = *backends_[i];
    if (i > 0) backends_json += ",";
    backends_json +=
        "{\"id\":\"" + JsonEscape(backend.config.id) + "\"" +
        ",\"host\":\"" + JsonEscape(backend.config.host) + "\"" +
        ",\"port\":" + std::to_string(backend.config.port) +
        ",\"state\":\"" +
        BackendHealthName(static_cast<BackendHealth>(
            backend.health.load(std::memory_order_acquire))) +
        "\"" +
        ",\"draining\":" +
        (backend.draining.load(std::memory_order_acquire) ? "true"
                                                          : "false") +
        "}";
  }
  backends_json += "]";
  // The seed travels as a decimal string: ring seeds exceed 2^53, past
  // what a JSON number survives through double-precision parsers.
  return WireResponse(proto, RequestOp::kTopology)
      .Add("generation",
           static_cast<int64_t>(generation_.load(std::memory_order_acquire)))
      .Add("vnodes", static_cast<int64_t>(options_.ring_vnodes))
      .Add("seed", std::to_string(options_.ring_seed))
      .Add("backends", RawJson{backends_json})
      .Finish();
}

// ---------------------------------------------------------------------------
// Introspection and control
// ---------------------------------------------------------------------------

NavRouterStats NavRouter::stats() const {
  FrontendStats f = frontend_.stats();
  NavRouterStats s;
  s.connections_accepted = f.connections_accepted;
  s.connections_shed = f.connections_shed;
  s.connections_open = f.connections_open;
  s.requests = f.requests;
  s.protocol_errors = f.protocol_errors;
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.retry_later = retry_later_.load(std::memory_order_relaxed);
  s.bytes_rx = f.bytes_rx;
  s.bytes_tx = f.bytes_tx;
  s.generation = generation_.load(std::memory_order_acquire);
  s.hot_keys_tracked = static_cast<int64_t>(hot_keys_.size());

  std::vector<int64_t> pins_per_backend(backends_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    s.pinned_sessions = static_cast<int64_t>(pins_.size());
    for (const auto& [token, backend] : pins_) {
      if (backend < pins_per_backend.size()) ++pins_per_backend[backend];
    }
  }
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& backend = *backends_[i];
    RouterBackendStats b;
    b.id = backend.config.id;
    b.health = static_cast<BackendHealth>(
        backend.health.load(std::memory_order_acquire));
    b.draining = backend.draining.load(std::memory_order_acquire);
    b.forwarded = backend.forwarded.load(std::memory_order_relaxed);
    b.upstream_errors =
        backend.upstream_errors.load(std::memory_order_relaxed);
    b.retry_later = backend.retry_later.load(std::memory_order_relaxed);
    b.probes_ok = backend.probes_ok.load(std::memory_order_relaxed);
    b.probes_failed = backend.probes_failed.load(std::memory_order_relaxed);
    b.pinned_sessions = pins_per_backend[i];
    if (b.health == BackendHealth::kHealthy) ++s.healthy_backends;
    s.backends.push_back(std::move(b));
  }
  return s;
}

bool NavRouter::SetBackendDraining(const std::string& id, bool draining) {
  auto it = backend_index_by_id_.find(id);
  if (it == backend_index_by_id_.end()) return false;
  bool was = backends_[it->second]->draining.exchange(
      draining, std::memory_order_acq_rel);
  if (was != draining) BumpGeneration();
  return true;
}

void NavRouter::Shutdown() {
  // Forwarded requests complete as their backend responses arrive while
  // the loops run; once the connections are drained (or force-closed,
  // including those whose pinned shard never answers), upstreams and
  // probes go down on their own loops.
  frontend_.Shutdown(
      /*settle=*/{}, /*teardown_loop=*/[this](size_t i) {
        std::vector<UpPtr> ups;
        for (const UpPtr& up : loop_upstreams_[i]) {
          if (up != nullptr && !up->closed) ups.push_back(up);
        }
        for (const UpPtr& up : ups) {
          FailUpstream(up, WireError::kShuttingDown, "router is draining",
                       false);
        }
        if (i == 0) {
          // By value: FinishProbe clears the probes_ slot, which would
          // free a probe still referenced through the slot.
          for (ProbePtr probe : probes_) {
            if (probe != nullptr && !probe->done) {
              FinishProbe(probe, false, "");
            }
          }
        }
      });
}

NavRouter::~NavRouter() { Shutdown(); }

}  // namespace bionav
