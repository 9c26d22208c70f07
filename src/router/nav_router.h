#ifndef BIONAV_ROUTER_NAV_ROUTER_H_
#define BIONAV_ROUTER_NAV_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.h"
#include "router/hot_keys.h"
#include "server/framed_frontend.h"
#include "server/protocol.h"
#include "util/event_loop.h"

namespace bionav {

/// One bionav_serve backend the router fronts. `id` is the ring identity
/// (defaults to "host:port" when empty) — it, not the address, is what
/// placement hashes, so a backend can move hosts without remapping keys.
struct RouterBackend {
  std::string host;
  int port = 0;
  std::string id;
};

/// Liveness of a backend as the health checker sees it.
///   kHealthy  — serving traffic.
///   kUnhealthy — ejected after consecutive probe/transport failures; its
///     slice answers RETRY_LATER until recovery (no silent remap: sessions
///     and warm artifacts live on that shard, moving the keys would trade
///     typed retryable errors for UNKNOWN_SESSION surprises).
///   kHalfOpen — ejection cooldown expired; one probe decides readmission.
enum class BackendHealth { kHealthy = 0, kUnhealthy = 1, kHalfOpen = 2 };

/// Lowercase name ("healthy"/"unhealthy"/"halfopen") for stats documents.
const char* BackendHealthName(BackendHealth health);

/// Listener and downstream-connection settings (bind address, port,
/// io_threads, admission, pipelining, backpressure, frame cap, idle and
/// drain timeouts) come from FrontendOptions. Each loop also owns its own
/// upstream pool, so cross-loop coordination never touches the data path.
struct NavRouterOptions : FrontendOptions {
  /// Per-backend bounded write queue: a forward that would push an
  /// upstream's unsent bytes past this sheds with RETRY_LATER instead of
  /// buffering without bound against a stalled shard.
  size_t max_upstream_queue_bytes = 4 << 20;
  /// Upstream connections per (backend, encoding) on each loop. Requests
  /// of one downstream connection always ride the same upstream (slot by
  /// connection id), preserving its request order through the backend.
  int upstream_pool_size = 2;
  /// Upstream connect watchdog; expiry fails queued requests RETRY_LATER.
  int64_t connect_timeout_ms = 1000;
  /// Health probe cadence (periodic STATS on the loop-0 timer wheel).
  int64_t health_interval_ms = 1000;
  /// A probe unanswered for this long counts as a failure.
  int64_t health_timeout_ms = 1000;
  /// Consecutive probe/transport failures before ejection.
  int health_failures_to_eject = 3;
  /// Ejection cooldown before a half-open probe may readmit the backend.
  int64_t half_open_after_ms = 2000;
  /// Ring geometry (see HashRingOptions).
  int ring_vnodes = 128;
  uint64_t ring_seed = HashRingOptions().seed;
  /// Hot-slice replication: a query key whose decayed request rate exceeds
  /// replicate_above_qps spreads its QUERYs round-robin across the first
  /// `replicas` healthy non-draining backends in ring preference order,
  /// instead of pinning the whole slice to one owner. replicas <= 1
  /// disables the spread; replicate_above_qps = 0 (with replicas > 1)
  /// replicates every key — the cold-fan-in configuration the peer-fetch
  /// CI gate uses. Sessions are unaffected: each stays pinned to the
  /// backend that answered its QUERY, and every non-owner replica pulls
  /// the artifacts from the owner via FETCH_ARTIFACT instead of rebuilding.
  int replicas = 1;
  double replicate_above_qps = 10.0;
  /// Decay half-life of the per-key rate estimator (see HotKeyTracker).
  int64_t hot_key_halflife_ms = 10000;
};

struct RouterBackendStats {
  std::string id;
  BackendHealth health = BackendHealth::kHealthy;
  bool draining = false;
  int64_t forwarded = 0;
  int64_t upstream_errors = 0;
  int64_t retry_later = 0;
  int64_t probes_ok = 0;
  int64_t probes_failed = 0;
  int64_t pinned_sessions = 0;
};

struct NavRouterStats {
  int64_t connections_accepted = 0;
  int64_t connections_shed = 0;
  int64_t connections_open = 0;
  int64_t requests = 0;
  int64_t protocol_errors = 0;
  int64_t forwarded = 0;
  int64_t retry_later = 0;
  int64_t pinned_sessions = 0;
  int64_t healthy_backends = 0;
  /// Downstream wire traffic through the router (the relay-hop bytes a
  /// client-routed fleet saves; bench_serving reads these for its A/B).
  int64_t bytes_rx = 0;
  int64_t bytes_tx = 0;
  /// Topology generation: bumps on every health or draining transition.
  uint64_t generation = 0;
  /// Keys the hot-key tracker currently follows.
  int64_t hot_keys_tracked = 0;
  std::vector<RouterBackendStats> backends;
};

/// The sharded serving tier's front door: a standalone proxy that fronts N
/// bionav_serve backends behind one endpoint. Its downstream side is a
/// FramedFrontend, so clients speak either wire encoding (line-delimited
/// JSON v1 or length-prefixed binary v2, negotiated per connection).
///
/// Placement: QUERY routes by NormalizeQueryKey(query) on a consistent-hash
/// ring — every session of a given query lands on the same shard, so that
/// shard's query-artifact cache stays hot for its slice of the query
/// universe. Session-scoped ops route by the token→shard pin learned from
/// the QUERY response that minted the token; a session therefore never
/// migrates mid-lifetime. Pins drop on CLOSE and on UNKNOWN_SESSION.
///
/// Forwarding: frames are relayed without re-encoding (the framing decoders
/// give boundaries; only QUERY responses and errors are decoded, to learn
/// pins). Each loop keeps a small pool of non-blocking upstream connections
/// per (backend, encoding); responses complete FIFO per upstream and the
/// front-end releases them downstream in request arrival order, so
/// pipelined clients see in-order responses even when their requests
/// fanned out across shards.
///
/// Failure model: a dead shard's slice answers typed RETRY_LATER (never a
/// hang, never a transport error downstream); consecutive failures eject
/// the backend, a half-open STATS probe readmits it. A draining backend
/// stops receiving new QUERYs but keeps serving its pinned sessions.
///
/// STATS/METRICS are answered by the router itself: STATS aggregates
/// router counters, per-backend breakdowns and a fleet-wide rollup of the
/// last scraped backend stats; METRICS exposes the router's own
/// bionav_router_* registry.
class NavRouter {
 public:
  NavRouter(std::vector<RouterBackend> backends,
            NavRouterOptions options = NavRouterOptions());

  NavRouter(const NavRouter&) = delete;
  NavRouter& operator=(const NavRouter&) = delete;

  /// Binds, listens, starts the reactors and the health checker.
  Status Start();

  /// Bound TCP port (valid after a successful Start).
  int port() const { return frontend_.port(); }

  /// Graceful shutdown; idempotent, also run by the destructor.
  void Shutdown();

  ~NavRouter();

  NavRouterStats stats() const;

  /// Marks a backend draining (true) or serving (false): a draining
  /// backend is skipped by new-QUERY placement but keeps receiving its
  /// pinned sessions' ops until they close. Thread-safe. False if the id
  /// names no backend.
  bool SetBackendDraining(const std::string& id, bool draining);

  const HashRing& ring() const { return ring_; }

 private:
  using ConnPtr = FramedFrontend::ConnPtr;

  /// One forwarded request awaiting its backend response (FIFO per
  /// upstream — the backend answers in arrival order).
  struct Pending {
    ConnPtr conn;
    uint64_t seq = 0;
    RequestOp op = RequestOp::kStats;
    /// Session token (token ops) for pin maintenance on CLOSE and
    /// UNKNOWN_SESSION responses.
    std::string token;
    int64_t sent_us = 0;
  };

  /// One pooled upstream connection (loop-thread-only; owned by the loop
  /// whose downstream connections it serves).
  struct Upstream {
    size_t backend_index = 0;
    WireProto proto = WireProto::kJson;
    size_t loop_index = 0;
    int fd = -1;
    bool connecting = false;
    bool closed = false;
    bool reading = false;
    bool want_write = false;
    /// Binary upstream answered with a pre-negotiation JSON line (the
    /// backend shed or drained before reading the preamble).
    bool json_fallback = false;
    bool saw_first_byte = false;
    /// Response reassembly. Responses dwarf requests (VIEW trees, METRICS
    /// expositions), hence the generous caps, as in NavClient.
    LineFrameDecoder decoder{64u << 20};
    BinaryFrameDecoder bdecoder{64u << 20};
    /// Unsent request bytes (bounded by max_upstream_queue_bytes).
    std::string outbox;
    size_t out_off = 0;
    std::deque<Pending> pending;
    TimerId connect_timer = kInvalidTimer;
  };
  using UpPtr = std::shared_ptr<Upstream>;

  /// An in-flight health probe (loop-0-only): one-shot connection, one
  /// JSON STATS request, one response line, closed.
  struct Probe {
    size_t backend_index = 0;
    int fd = -1;
    bool connecting = false;
    bool done = false;
    std::string outbox;
    size_t out_off = 0;
    LineFrameDecoder decoder{4u << 20};
    TimerId timeout_timer = kInvalidTimer;
  };
  using ProbePtr = std::shared_ptr<Probe>;

  /// Fleet-rollup numbers extracted from a backend's scraped STATS.
  struct BackendScrape {
    bool valid = false;
    int64_t requests = 0;
    int64_t sessions_active = 0;
    int64_t sessions_created = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    /// Artifact provenance of the backend's query cache: local builds and
    /// FETCH_ARTIFACT traffic (the fleet rollup's duplicate-build signal).
    int64_t cache_builds = 0;
    int64_t peer_fetch_hits = 0;
    int64_t peer_fetch_misses = 0;
    int64_t bytes_rx = 0;
    int64_t bytes_tx = 0;
    std::string raw;  // The full backend STATS document.
  };

  /// Shared per-backend state. Atomics are the cross-loop surface; the
  /// scrape is mutex-guarded (probe writes, STATS reads).
  struct BackendState {
    RouterBackend config;
    std::atomic<int> health{static_cast<int>(BackendHealth::kHealthy)};
    std::atomic<bool> draining{false};
    std::atomic<int> consecutive_failures{0};
    std::atomic<int64_t> ejected_at_ms{0};
    std::atomic<int64_t> forwarded{0};
    std::atomic<int64_t> upstream_errors{0};
    std::atomic<int64_t> retry_later{0};
    std::atomic<int64_t> probes_ok{0};
    std::atomic<int64_t> probes_failed{0};
    mutable std::mutex scrape_mu;
    BackendScrape scrape;
  };

  // --- Routing ---
  /// The front-end's dispatch callback. Parses one downstream frame and
  /// routes it: STATS/METRICS answer locally, QUERY places by normalized
  /// query key, token ops follow their pin. Completion is immediate for
  /// local answers and typed errors; forwarded requests complete when the
  /// backend responds.
  void RouteFrame(const ConnPtr& conn, uint64_t seq,
                  const std::string& payload);
  /// Ring walk for a new QUERY: first non-draining backend in preference
  /// order. -1 when every backend drains. Records the key with the hot-key
  /// tracker and, when replication is on and the key runs hot, spreads the
  /// choice round-robin across the first `replicas` healthy non-draining
  /// ring-successors.
  int ChooseQueryBackend(std::string_view query_key) const;
  /// The strict slice owner (no hot-key spread, no rate recording) — what
  /// FETCH_ARTIFACT forwarding uses: the replica asking for the bundle
  /// must never be routed back to itself.
  int ChooseOwnerBackend(std::string_view query_key) const;
  /// Pin lookup for a session op; unpinned tokens recover their minting
  /// shard from the "<backend-id>-s<ordinal>" token shape (sessions
  /// created over direct client-routed connections were never pinned
  /// here), then fall back to the ring owner of the token (the backend
  /// will answer UNKNOWN_SESSION if the session never lived there).
  size_t ChooseSessionBackend(std::string_view token) const;
  void ForwardToBackend(const ConnPtr& conn, uint64_t seq,
                        size_t backend_index, const RequestView& view,
                        const std::string& payload);
  /// Immediate typed RETRY_LATER completion, with per-backend accounting
  /// (backend_index may be SIZE_MAX when no backend was choosable).
  void AnswerRetryLater(const ConnPtr& conn, uint64_t seq,
                        size_t backend_index, std::string_view message);

  // --- Upstream pool ---
  size_t UpstreamSlot(size_t backend_index, WireProto proto,
                      uint64_t conn_id) const;
  /// Live upstream for the slot, creating (and connecting) one if the
  /// slot is empty or its connection died. Null when the connect cannot
  /// even be initiated.
  UpPtr GetUpstream(size_t loop_index, size_t backend_index, WireProto proto,
                    uint64_t conn_id);
  UpPtr CreateUpstream(size_t loop_index, size_t backend_index,
                       WireProto proto);
  void OnUpstreamEvent(const UpPtr& up, uint32_t events);
  void FlushUpstream(const UpPtr& up);
  void ReadUpstream(const UpPtr& up);
  void UpdateUpstreamInterest(const UpPtr& up);
  /// One complete backend response frame: pin maintenance, then relay to
  /// the owning downstream connection under its sequence number.
  void HandleUpstreamFrame(const UpPtr& up, const std::string& frame);
  /// Tears an upstream down and completes every queued request with a
  /// typed error. count_failure feeds the ejection counter (transport
  /// failures do; shutdown does not).
  void FailUpstream(const UpPtr& up, WireError error,
                    std::string_view message, bool count_failure);

  // --- Health checking (loop 0) ---
  void ArmHealthTimer();
  void RunProbes();
  void StartProbe(size_t backend_index);
  void OnProbeEvent(const ProbePtr& probe, uint32_t events);
  void FinishProbe(const ProbePtr& probe, bool success,
                   const std::string& response_line);
  void RecordBackendFailure(size_t backend_index);
  void RecordBackendSuccess(size_t backend_index);
  void RefreshHealthyGauge();

  // --- Session pins ---
  void PinSession(const std::string& token, size_t backend_index);
  void UnpinSession(std::string_view token);

  // --- Local answers ---
  WireFrame BuildAggregatedStats(WireProto proto) const;
  /// The shard map for client-side routing: generation, ring geometry
  /// (seed as a decimal string — it exceeds what a JSON double carries)
  /// and per-backend address/health/draining.
  WireFrame BuildTopologyFrame(WireProto proto) const;
  /// Membership/health/draining changed: clients holding the old ring
  /// should refresh.
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  NavRouterOptions options_;
  std::vector<std::unique_ptr<BackendState>> backends_;
  std::unordered_map<std::string, size_t> backend_index_by_id_;
  HashRing ring_;  // Immutable after construction.

  FramedFrontend frontend_;
  /// Upstream pool per loop, indexed by UpstreamSlot (loop-thread-only).
  std::vector<std::vector<UpPtr>> loop_upstreams_;
  /// Active probe per backend (loop-0-only).
  std::vector<ProbePtr> probes_;

  /// token → backend index. Learned from QUERY responses, dropped on
  /// CLOSE and UNKNOWN_SESSION. The only cross-loop mutable routing state.
  mutable std::mutex pins_mu_;
  std::unordered_map<std::string, size_t> pins_;

  std::atomic<int64_t> forwarded_{0};
  std::atomic<int64_t> retry_later_{0};
  /// Starts at 1 so a client's zero-initialized FleetTopology is always
  /// visibly stale.
  std::atomic<uint64_t> generation_{1};
  /// Per-key decayed request rates (mutable: ChooseQueryBackend is
  /// logically const routing but records the observation).
  mutable HotKeyTracker hot_keys_;
  /// Round-robin cursor spreading a hot key across its replica set.
  mutable std::atomic<uint64_t> hot_rr_{0};
};

}  // namespace bionav

#endif  // BIONAV_ROUTER_NAV_ROUTER_H_
