#ifndef BIONAV_SERVER_FRAMED_FRONTEND_H_
#define BIONAV_SERVER_FRAMED_FRONTEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/event_loop.h"

namespace bionav {

/// Listener and downstream-connection settings of a framed front door
/// (the base of NavServerOptions and NavRouterOptions).
struct FrontendOptions {
  /// Bind address (loopback by default — fronting proxies terminate the
  /// public edge in the paper's architecture).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via port() after Start.
  int port = 0;
  /// Reactor threads owning the non-blocking sockets. 1–2 saturate the
  /// line-protocol I/O for thousands of connections. Clamped to >= 1.
  int io_threads = 1;
  /// Admission control at the accept path: a connection arriving while
  /// this many are open is answered RETRY_LATER and closed. Connections
  /// are cheap reactor state, so the default holds thousands.
  int max_connections = 4096;
  /// Pipelining depth: dispatched-but-unanswered requests per connection.
  /// Past it the reactor stops reading that connection until responses
  /// drain (per-connection backpressure, never a global stall).
  int max_inflight_per_connection = 64;
  /// Write-queue backpressure: when a connection's queued response bytes
  /// exceed this, reading it pauses until the queue drains below.
  size_t max_write_queue_bytes = 4 << 20;
  /// A request frame may grow to this many bytes; past it the connection
  /// gets a typed BAD_REQUEST and is closed (slow-loris defense; see
  /// LineFrameDecoder).
  size_t max_frame_bytes = LineFrameDecoder::kDefaultMaxFrameBytes;
  /// Idle connections are closed after this long without a readable byte
  /// (enforced by the reactor's timer wheel). 0 disables.
  int64_t idle_timeout_ms = 5 * 60 * 1000;
  /// Shutdown drains pending write queues for at most this long before
  /// force-closing what remains.
  int64_t drain_deadline_ms = 2000;
};

/// Front-end counters (monotone except `connections_open`).
struct FrontendStats {
  int64_t connections_accepted = 0;
  int64_t connections_shed = 0;
  int64_t connections_open = 0;
  int64_t connections_idle_closed = 0;
  int64_t requests = 0;
  int64_t protocol_errors = 0;
  int64_t oversized_frames = 0;
  int64_t epoll_wakeups = 0;
  int64_t bytes_rx = 0;
  int64_t bytes_tx = 0;
};

/// The downstream reactor shared by NavServer and NavRouter: it owns the
/// listener, `io_threads` EventLoops and their threads, and every client
/// connection. Each connection negotiates its encoding on its first bytes
/// (the "BNV2" preamble selects length-prefixed binary v2; anything else
/// stays line-delimited JSON v1), frames are assembled incrementally from
/// partial reads, and every complete frame gets a sequence number and goes
/// to the owner's dispatch callback. Responses come back through Complete()
/// in any order and are released to a bounded per-connection write queue
/// in sequence order, then coalesced into writev batches.
///
/// Backpressure: reading pauses per connection while its in-flight count
/// or queued write bytes exceed their caps; admission is shed at the
/// accept path past max_connections. Idle connections are reaped by the
/// loop's timer wheel.
///
/// Dispatch contract: the callback runs on the connection's loop thread.
/// For every (conn, seq) it receives, the owner calls Complete(conn, seq,
/// ...) exactly once, on that same loop thread — inline from the callback,
/// or later via loop(conn->loop_index)->RunInLoop. A completion for a
/// connection that has since closed is dropped.
///
/// Shutdown runs in phases (see Shutdown) so the owner can wait for its
/// own in-flight work and tear down its own loop-resident state before
/// the loops stop.
class FramedFrontend {
 public:
  /// Per-connection reactor state. Every field is touched only on the
  /// owning loop's thread. Owners read `id`, `loop_index`, `proto` and
  /// `closed`; the rest is the front-end's.
  struct Connection {
    explicit Connection(size_t max_frame_bytes)
        : decoder(max_frame_bytes), bdecoder(max_frame_bytes) {}

    /// Unique per front-end (the router's upstream-slot affinity).
    uint64_t id = 0;
    int fd = -1;
    size_t loop_index = 0;
    /// Wire encoding, decided by the connection's very first bytes. Until
    /// decided, bytes accumulate in `preamble` (at most 4) and neither
    /// decoder is fed.
    WireProto proto = WireProto::kJson;
    bool proto_decided = false;
    /// First bytes were 'B'-led but not the preamble: answer BAD_REQUEST
    /// (in JSON — the peer's encoding is unknowable) and close.
    bool preamble_error = false;
    std::string preamble;
    LineFrameDecoder decoder;     // JSON framing.
    BinaryFrameDecoder bdecoder;  // Binary framing.
    /// Responses released in order, front may be partially written.
    std::deque<WireFrame> write_queue;
    size_t write_offset = 0;
    size_t write_queue_bytes = 0;
    /// Pipelining bookkeeping: requests are numbered on decode; responses
    /// park in `completed` until every earlier one has been released.
    uint64_t next_dispatch_seq = 0;
    uint64_t next_release_seq = 0;
    std::map<uint64_t, WireFrame> completed;
    int inflight = 0;
    bool reading = true;       // kReadable currently in the interest set.
    bool want_write = false;   // kWritable currently in the interest set.
    bool dispatching = false;  // DispatchFrames re-entrancy guard.
    bool draining = false;     // No new dispatches (EOF, error, shutdown).
    bool close_after_flush = false;
    bool closed = false;
    int64_t last_activity_ms = 0;
    TimerId idle_timer = kInvalidTimer;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// Receives one complete request frame. `payload` is the frame body (no
  /// newline, no binary header); the callee may move from it. `no_backlog`
  /// is true when this is the connection's only unanswered request — the
  /// moment an inline answer cannot delay an earlier response.
  using DispatchFn = std::function<void(const ConnPtr& conn, uint64_t seq,
                                        std::string& payload,
                                        bool no_backlog)>;

  /// `role` ("server", "router") names the front door in its wire error
  /// texts ("<role> is draining") and metric names ("bionav_<role>_...").
  FramedFrontend(FrontendOptions options, std::string role,
                 DispatchFn dispatch);
  ~FramedFrontend();

  FramedFrontend(const FramedFrontend&) = delete;
  FramedFrontend& operator=(const FramedFrontend&) = delete;

  /// Binds and listens (or adopts `listen_fd`, already bound, listening and
  /// non-blocking), then starts the reactor threads. The loops exist from
  /// construction, so owners may size per-loop state before Start.
  Status Start(int listen_fd = -1);

  /// Graceful shutdown; idempotent. Phases:
  ///   1. close the listener (no new connections);
  ///   2. drain every connection: no more reads, buffered frames answered
  ///      SHUTTING_DOWN, close once its responses flush;
  ///   3. `settle()` — the owner waits for its dispatched work;
  ///   4. wait up to drain_deadline_ms for the connections to close, then
  ///      force-close the stragglers;
  ///   5. `teardown_loop(i)` on each loop i's thread;
  ///   6. stop and join the loops.
  /// Either hook may be empty.
  void Shutdown(const std::function<void()>& settle,
                const std::function<void(size_t)>& teardown_loop);

  /// Loop-thread: files a finished response under its sequence number and
  /// releases every in-order response to the write queue.
  void Complete(const ConnPtr& conn, uint64_t seq, WireFrame response);

  /// Counts a request frame the owner rejected before executing it.
  void CountProtocolError();

  int port() const { return port_; }
  int listen_fd() const { return listen_fd_; }
  bool started() const { return started_.load(); }
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }
  size_t num_loops() const { return loops_.size(); }
  EventLoop* loop(size_t index) const { return loops_[index].get(); }

  FrontendStats stats() const;

 private:
  void IoThreadMain(size_t loop_index);
  void OnAcceptable();
  void AdmitConnection(int fd);
  void OnConnectionEvent(const ConnPtr& conn, uint32_t events);
  void ReadConnection(const ConnPtr& conn);
  /// Routes received bytes through protocol negotiation into the
  /// connection's decoder. False once the stream is unrecoverable
  /// (preamble error or a broken decoder latch).
  bool FeedConnection(const ConnPtr& conn, std::string_view data);
  /// Negotiation-aware views over the connection's active decoder.
  bool HasBufferedFrame(const ConnPtr& conn) const;
  bool NextBufferedFrame(const ConnPtr& conn, std::string* payload);
  bool DecoderBroken(const ConnPtr& conn) const;
  /// Answers a broken decoder (runaway frame, lost binary sync) with a
  /// typed error after the frames before it, then drains and closes.
  /// False when the stream is healthy, draining or closed.
  bool RejectBrokenStream(const ConnPtr& conn);
  /// Hands buffered frames to the dispatch callback (or answers
  /// SHUTTING_DOWN when draining). Honors the pipelining cap.
  void DispatchFrames(const ConnPtr& conn);
  /// Answers a frame locally with `response` under the next sequence
  /// number; `close` ends the connection after it flushes.
  void AnswerLocally(const ConnPtr& conn, WireFrame response, bool close);
  /// Coalesces every ready response (owned heads and shared template
  /// bodies alike) into one sendmsg before re-arming EPOLLOUT.
  void FlushWrites(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn);
  /// (Re)arms the idle timer against last_activity_ms.
  void ArmIdleTimer(const ConnPtr& conn);
  void CloseConnection(const ConnPtr& conn);
  /// Loop-thread: transitions a connection into drain (no more reads or
  /// dispatches; buffered frames answered SHUTTING_DOWN; close on flush).
  void DrainConnection(const ConnPtr& conn);
  /// Runs `fn` on every open connection of every loop, on its loop thread.
  void ForEachConnection(void (FramedFrontend::*fn)(const ConnPtr&));
  /// Waits up to `timeout_ms` for every connection to close.
  void AwaitClosed(int64_t timeout_ms);
  void CountRequest();
  void ReleaseOpenSlot();

  FrontendOptions options_;
  const std::string role_;
  const std::string draining_message_;  // "<role> is draining"
  const DispatchFn dispatch_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> io_threads_;
  /// Connections owned by each loop (loop-thread-only containers; indexed
  /// by loop). Used by drain and force-close.
  std::vector<std::unordered_map<int, ConnPtr>> loop_conns_;
  std::atomic<size_t> next_loop_{0};  // Round-robin connection placement.
  std::atomic<uint64_t> next_conn_id_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> shutting_down_{false};
  std::mutex shutdown_mu_;  // Serializes Shutdown (idempotence).

  /// Signaled by loops as connections close; Shutdown waits on it for the
  /// bounded drain.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_shed_{0};
  std::atomic<int64_t> connections_open_{0};
  std::atomic<int64_t> connections_idle_closed_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> oversized_frames_{0};
  std::atomic<int64_t> bytes_rx_{0};
  std::atomic<int64_t> bytes_tx_{0};

  /// Process-wide mirrors, registered as "bionav_<role>_<name>".
  Counter* const accepted_total_;
  Counter* const shed_total_;
  Counter* const requests_total_;
  Counter* const protocol_errors_total_;
  Counter* const rx_bytes_total_;
  Counter* const tx_bytes_total_;
  Gauge* const open_connections_;
  Gauge* const write_queue_bytes_;
  LatencyHistogram* const flush_batch_;
};

}  // namespace bionav

#endif  // BIONAV_SERVER_FRAMED_FRONTEND_H_
