#ifndef BIONAV_SERVER_NAV_SERVER_H_
#define BIONAV_SERVER_NAV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

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
/// stall the loop execute inline on the reactor when the connection has no
/// backlog, skipping the pool round-trip's two scheduler handoffs on the
/// warm interactive path: parse errors, cache-hit QUERYs, CLOSE, BACKTRACK
/// and FIND on a session no other op holds that is resident (or parked
/// with its record in memory and its artifacts cached, and then restored
/// first), a SHOWRESULTS of such a session whose reply
/// template is stored or whose component holds at most
/// kInlineShowMaxResults citations, and an EXPAND of such a session whose
/// cut the query's memo already holds. The reactor does no disk I/O and
/// never waits on a lock that is held across it: what an inline op leaves
/// for the disk runs on the pool.
///
/// Shutdown is graceful: the listener closes, already-dispatched requests
/// complete on the pool, frames buffered but not yet dispatched are
/// answered SHUTTING_DOWN, and write queues are flushed under
/// drain_deadline_ms before fds close.
class NavServer {
 public:
  /// The most citations a SHOWRESULTS ranks on the reactor thread: its
  /// work grows with the component's results, so a larger component's
  /// SHOWRESULTS runs on the pool.
  static constexpr int kInlineShowMaxResults = 64;

  /// The hierarchy/eutils substrate must outlive the server. The strategy
  /// factory is shared by all sessions (BioNav policy by default).
  NavServer(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
            StrategyFactory strategy_factory = nullptr,
            NavServerOptions options = NavServerOptions());
  /// As above, with the spill tier served by `spill` (null: no spill tier)
  /// instead of a SpillStore on options.session.spill_dir — the seam tests
  /// use to observe the tier's I/O.
  NavServer(const ConceptHierarchy* hierarchy, const EUtilsClient* eutils,
            StrategyFactory strategy_factory, NavServerOptions options,
            std::unique_ptr<SpillStore> spill);

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
  /// True when a parsed request may try to execute inline on the reactor:
  /// a QUERY or a session op, which HandleRequest(..., on_reactor) then
  /// serves or declines. (Parse
  /// failures are always inline-safe — their reply is a constant error
  /// frame — and are handled before this check.)
  bool FastPathEligible(const RequestView& request) const;

  /// Executes one request frame (parse + dispatch) in the connection's
  /// encoding, returns the finished response frame. Runs on a pool thread;
  /// everything it touches is thread-safe.
  WireFrame HandleFrame(WireProto proto, const std::string& payload);
  /// Dispatches an already-parsed request. With `on_reactor` (running on
  /// the reactor; its disk work is left there), session ops only try
  /// their session (SessionManager::TryWithSession), EXPAND only replays a
  /// memoized cut and SHOWRESULTS only serves a stored template or ranks a
  /// bounded component (kInlineShowMaxResults); nullopt then means
  /// "declined" and the request belongs to the pool. Without it, never
  /// nullopt.
  std::optional<WireFrame> HandleRequest(
      const RequestView& request, WireProto proto,
      SessionManager::DiskWork* on_reactor = nullptr);
  WireFrame HandleParseError(WireProto proto, WireError error,
                             const std::string& message);
  /// Runs `body` on the session `token` names — WithSession on the pool,
  /// TryWithSession on the reactor — and returns the op's status. nullopt
  /// when the reactor's try was declined, by the manager or by `body`
  /// returning nullopt, and the op did not run.
  std::optional<Status> OnSession(
      std::string_view token, SessionManager::DiskWork* on_reactor,
      const std::function<std::optional<Status>(NavigationSession&)>& body);

  std::optional<WireFrame> HandleQuery(const RequestView& request,
                                       WireProto proto,
                                       SessionManager::DiskWork* on_reactor);
  std::optional<WireFrame> HandleExpand(const RequestView& request,
                                        WireProto proto,
                                        SessionManager::DiskWork* on_reactor);
  std::optional<WireFrame> HandleShowResults(
      const RequestView& request, WireProto proto,
      SessionManager::DiskWork* on_reactor);
  std::optional<WireFrame> HandleBacktrack(
      const RequestView& request, WireProto proto,
      SessionManager::DiskWork* on_reactor);
  WireFrame HandleBatchExpand(const RequestView& request, WireProto proto);
  std::optional<WireFrame> HandleFind(const RequestView& request,
                                      WireProto proto,
                                      SessionManager::DiskWork* on_reactor);
  WireFrame HandleView(const RequestView& request, WireProto proto);
  WireFrame HandleClose(const RequestView& request, WireProto proto,
                        SessionManager::DiskWork* on_reactor);
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
