#ifndef BIONAV_SERVER_NAV_SERVER_H_
#define BIONAV_SERVER_NAV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "server/framed_frontend.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/thread_pool.h"

namespace bionav {

/// Listener and connection settings (bind address, port, io_threads,
/// admission, pipelining, backpressure, frame cap, idle and drain
/// timeouts) come from FrontendOptions.
struct NavServerOptions : FrontendOptions {
  /// Compute workers (ThreadPool) executing decoded requests.
  int threads = 4;
  /// Warm restart: adopt this already-bound, already-listening fd instead
  /// of socket/bind/listen. The predecessor process dups its listener
  /// CLOEXEC-free (DetachListener), execs the new binary, and connections
  /// queued in the listen backlog ride through the swap. -1 disables.
  int inherit_listen_fd = -1;
  SessionManagerOptions session;
  CostModelParams cost_params;
};

/// Server-level counters (session counters live in SessionManagerStats).
struct NavServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_shed = 0;
  int64_t connections_open = 0;
  int64_t connections_idle_closed = 0;
  int64_t requests = 0;
  int64_t protocol_errors = 0;
  int64_t oversized_frames = 0;
  int64_t epoll_wakeups = 0;
  /// Wire bytes received/sent across all connections (both protocols).
  int64_t bytes_rx = 0;
  int64_t bytes_tx = 0;
  SessionManagerStats sessions;
};

/// The navigation service of the paper's Section VII deployment, serving
/// the wire protocol of server/protocol.h over TCP. The connection layer is
/// a FramedFrontend (accept, admission, JSON/binary negotiation, framing,
/// in-order pipelined release, backpressure, idle reaping, drain); this
/// class executes the frames it dispatches. Hot responses (cache-hit
/// QUERY, first EXPAND/SHOWRESULTS of an intact component) are served from
/// pre-rendered templates on the shared QueryArtifacts — one serialization
/// per (request shape, encoding), then writev of {owned header, shared
/// body} for every later session.
///
/// Execution: decoded frames run on the compute ThreadPool and their
/// responses marshal back to the connection's loop. Requests that cannot
/// stall the loop (parse errors, cache-hit QUERYs) execute inline on the
/// reactor when the connection has no backlog, skipping the pool
/// round-trip's two scheduler handoffs on the warm interactive path.
///
/// Shutdown is graceful: the listener closes, already-dispatched requests
/// complete on the pool, frames buffered but not yet dispatched are
/// answered SHUTTING_DOWN, and write queues are flushed under
/// drain_deadline_ms before fds close.
class NavServer {
 public:
  /// The hierarchy/eutils substrate must outlive the server. The strategy
  /// factory is shared by all sessions (BioNav policy by default).
  NavServer(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
            StrategyFactory strategy_factory = nullptr,
            NavServerOptions options = NavServerOptions());

  NavServer(const NavServer&) = delete;
  NavServer& operator=(const NavServer&) = delete;

  /// Binds, listens, and starts the reactor threads. IOError on failure.
  Status Start();

  /// Bound TCP port (valid after a successful Start).
  int port() const { return frontend_.port(); }

  /// Graceful shutdown; idempotent, also run by the destructor.
  void Shutdown();

  /// Warm-restart support: dups the listening socket WITHOUT close-on-exec
  /// and returns the new fd (-1 if not listening). The dup keeps the
  /// kernel's listen backlog alive across Shutdown + exec — clients
  /// connecting during the swap queue there instead of seeing RST. Call
  /// before Shutdown, pass the fd to the next binary via
  /// --inherit-listen-fd.
  int DetachListener();

  ~NavServer();

  NavServerStats stats() const;
  SessionManager& session_manager() { return sessions_; }

 private:
  using ConnPtr = FramedFrontend::ConnPtr;

  /// Arms (and re-arms) the periodic idle-spill sweep on loop 0. The sweep
  /// body runs on the compute pool — disk writes never block the reactor.
  void ArmSpillSweep();
  /// The front-end's dispatch callback: inline when `no_backlog` and the
  /// request cannot stall the loop, on the compute pool otherwise. Each
  /// request is parsed once: on the loop when `no_backlog` (the pool then
  /// gets an owned copy), on the pool otherwise.
  void Dispatch(const ConnPtr& conn, uint64_t seq, std::string& payload,
                bool no_backlog);
  /// True when a parsed request may execute inline on the reactor thread
  /// without risking a loop stall: a QUERY whose artifacts the cache
  /// already holds built. (Parse failures are always inline-safe — their
  /// reply is a constant error frame — and are handled before this check.)
  bool FastPathEligible(const RequestView& request) const;

  /// Executes one request frame (parse + dispatch) in the connection's
  /// encoding, returns the finished response frame. Runs on a pool thread;
  /// everything it touches is thread-safe.
  WireFrame HandleFrame(WireProto proto, const std::string& payload);
  /// Dispatches an already-parsed request.
  WireFrame HandleRequest(const RequestView& request, WireProto proto);
  WireFrame HandleParseError(WireProto proto, WireError error,
                             const std::string& message);

  WireFrame HandleQuery(const RequestView& request, WireProto proto);
  WireFrame HandleExpand(const RequestView& request, WireProto proto);
  WireFrame HandleShowResults(const RequestView& request, WireProto proto);
  WireFrame HandleBacktrack(const RequestView& request, WireProto proto);
  WireFrame HandleBatchExpand(const RequestView& request, WireProto proto);
  WireFrame HandleFind(const RequestView& request, WireProto proto);
  WireFrame HandleView(const RequestView& request, WireProto proto);
  WireFrame HandleClose(const RequestView& request, WireProto proto);
  WireFrame HandleStats(const RequestView& request, WireProto proto);
  WireFrame HandleMetrics(const RequestView& request, WireProto proto);
  /// Owner-side artifact export: serializes the key's bundle (building it
  /// inside the cache's singleflight on a miss) into a base64 "artifact"
  /// field. Peer shards call this; it never recurses into a peer fetch.
  WireFrame HandleFetchArtifact(const RequestView& request, WireProto proto);
  /// Bare backends hold no shard map; the routing tier answers TOPOLOGY.
  WireFrame HandleTopology(const RequestView& request, WireProto proto);

  NavServerOptions options_;
  SessionManager sessions_;
  /// Declared before the pool: the pool joins its workers (whose
  /// completions reach into the front-end's loops) before the loops die.
  FramedFrontend frontend_;
  ThreadPool pool_;

  /// One idle-spill sweep at a time; a slow disk must not pile up sweeps.
  std::atomic<bool> spill_sweep_inflight_{false};
};

}  // namespace bionav

#endif  // BIONAV_SERVER_NAV_SERVER_H_
