#include "server/framed_frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace bionav {

namespace {

/// Best-effort one-line reply on a socket about to be closed (accept-path
/// shedding). The socket buffer of a fresh connection swallows a short
/// line, so a single non-blocking send suffices. Shed replies are always
/// JSON: they may fire before the peer's first byte decides its protocol,
/// and a binary client recognizes the '{' as the JSON fallback signal.
void SendErrorBestEffort(int fd, WireError error, std::string_view message) {
  const std::string line =
      WireResponse::Error(WireProto::kJson, error, message).head;
  [[maybe_unused]] ssize_t n =
      ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

/// iovec segments per sendmsg. Each queued frame spends at most two (owned
/// head + shared template body), so one flush coalesces up to 32 responses.
constexpr size_t kMaxIov = 64;

}  // namespace

FramedFrontend::FramedFrontend(FrontendOptions options, std::string role,
                               DispatchFn dispatch)
    : options_(std::move(options)),
      role_(std::move(role)),
      draining_message_(role_ + " is draining"),
      dispatch_(std::move(dispatch)),
      accepted_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_connections_accepted_total",
          "Connections accepted")),
      shed_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_connections_shed_total",
          "Connections shed by admission control")),
      requests_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_requests_total", "Request frames received")),
      protocol_errors_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_protocol_errors_total",
          "Request frames rejected before dispatch")),
      rx_bytes_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_bytes_rx_total",
          "Request bytes read from client sockets")),
      tx_bytes_total_(GlobalMetrics().GetCounter(
          "bionav_" + role_ + "_bytes_tx_total",
          "Response bytes written to client sockets")),
      open_connections_(GlobalMetrics().GetGauge(
          "bionav_" + role_ + "_open_connections",
          "Connections currently open")),
      write_queue_bytes_(GlobalMetrics().GetGauge(
          "bionav_" + role_ + "_write_queue_bytes",
          "Total response bytes queued across connections")),
      flush_batch_(GlobalMetrics().GetHistogram(
          "bionav_" + role_ + "_flush_batch",
          "Response frames coalesced per sendmsg")) {
  if (options_.io_threads < 1) options_.io_threads = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_inflight_per_connection < 1) {
    options_.max_inflight_per_connection = 1;
  }
  if (options_.max_write_queue_bytes < 4096) {
    options_.max_write_queue_bytes = 4096;
  }
  for (int i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  loop_conns_.resize(loops_.size());
}

FramedFrontend::~FramedFrontend() { Shutdown({}, {}); }

Status FramedFrontend::Start(int listen_fd) {
  BIONAV_CHECK(!started_.load()) << role_ << " started twice";

  sockaddr_in addr{};
  listen_fd_ = listen_fd;
  if (listen_fd_ < 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("bad bind address '" +
                                     options_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status =
          Status::IOError(std::string("bind: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    if (::listen(listen_fd_, 512) != 0) {
      Status status =
          Status::IOError(std::string("listen: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  // Pre-Run registration is safe: no loop thread is running yet. The
  // listener lives on loop 0; accepted fds are spread round-robin.
  Status added = loops_[0]->Add(listen_fd_, EventLoop::kReadable,
                                [this](uint32_t) { OnAcceptable(); });
  if (!added.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return added;
  }

  started_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    io_threads_.emplace_back([this, i] { IoThreadMain(i); });
  }
  return Status::OK();
}

void FramedFrontend::IoThreadMain(size_t loop_index) {
  loops_[loop_index]->Run();
}

void FramedFrontend::OnAcceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_total_->Increment();
    if (shutting_down()) {
      SendErrorBestEffort(fd, WireError::kShuttingDown, draining_message_);
      ::close(fd);
      continue;
    }
    // Admission control at the accept path: past max_connections the
    // connection is shed with RETRY_LATER — the client backs off, the
    // table of connections never grows without bound. The shed is counted
    // before the reply leaves, so a client that sees RETRY_LATER also sees
    // it in stats().
    if (connections_open_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      shed_total_->Increment();
      SendErrorBestEffort(fd, WireError::kRetryLater,
                          role_ + " at capacity, retry later");
      ::close(fd);
      continue;
    }
    AdmitConnection(fd);
  }
}

void FramedFrontend::AdmitConnection(int fd) {
  // Disable Nagle: responses are small frames written as soon as they are
  // released; coalescing only adds latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  connections_open_.fetch_add(1, std::memory_order_acq_rel);
  open_connections_->Add(1);

  size_t loop_index =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  ConnPtr conn = std::make_shared<Connection>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  conn->loop_index = loop_index;
  conn->last_activity_ms = SteadyNowMs();

  EventLoop* loop = loops_[loop_index].get();
  loop->RunInLoop([this, loop, conn] {
    if (shutting_down()) {
      // Raced with drain: this connection would never be drained by
      // Shutdown's sweep, so refuse it here.
      SendErrorBestEffort(conn->fd, WireError::kShuttingDown,
                          draining_message_);
      ::close(conn->fd);
      conn->closed = true;
      ReleaseOpenSlot();
      return;
    }
    loop_conns_[conn->loop_index].emplace(conn->fd, conn);
    Status added =
        loop->Add(conn->fd, EventLoop::kReadable,
                  [this, conn](uint32_t events) {
                    OnConnectionEvent(conn, events);
                  });
    if (!added.ok()) {
      loop_conns_[conn->loop_index].erase(conn->fd);
      ::close(conn->fd);
      conn->closed = true;
      ReleaseOpenSlot();
      return;
    }
    ArmIdleTimer(conn);
  });
}

void FramedFrontend::OnConnectionEvent(const ConnPtr& conn, uint32_t events) {
  if (conn->closed) return;
  if (events & EventLoop::kError) {
    CloseConnection(conn);
    return;
  }
  if (events & EventLoop::kWritable) FlushWrites(conn);
  if (conn->closed) return;
  if (events & EventLoop::kReadable) ReadConnection(conn);
}

bool FramedFrontend::FeedConnection(const ConnPtr& conn,
                                    std::string_view data) {
  if (!conn->proto_decided) {
    conn->preamble.append(data.data(), data.size());
    if (conn->preamble.empty()) return true;
    if (conn->preamble[0] != kBinaryPreamble[0]) {
      // A JSON request line always starts with '{': the connection is v1.
      // Replay everything buffered so far into the line decoder.
      conn->proto = WireProto::kJson;
      conn->proto_decided = true;
      std::string buffered = std::move(conn->preamble);
      conn->preamble.clear();
      return conn->decoder.Feed(buffered);
    }
    if (conn->preamble.size() < sizeof(kBinaryPreamble)) return true;
    if (std::memcmp(conn->preamble.data(), kBinaryPreamble,
                    sizeof(kBinaryPreamble)) != 0) {
      conn->preamble_error = true;
      return false;
    }
    conn->proto = WireProto::kBinary;
    conn->proto_decided = true;
    std::string buffered = std::move(conn->preamble);
    conn->preamble.clear();
    return conn->bdecoder.Feed(
        std::string_view(buffered).substr(sizeof(kBinaryPreamble)));
  }
  return conn->proto == WireProto::kBinary ? conn->bdecoder.Feed(data)
                                           : conn->decoder.Feed(data);
}

bool FramedFrontend::HasBufferedFrame(const ConnPtr& conn) const {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.has_frame()
                                           : conn->decoder.has_frame();
}

bool FramedFrontend::NextBufferedFrame(const ConnPtr& conn,
                                       std::string* payload) {
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.Next(payload)
                                           : conn->decoder.Next(payload);
}

bool FramedFrontend::DecoderBroken(const ConnPtr& conn) const {
  if (conn->preamble_error) return true;
  if (!conn->proto_decided) return false;
  return conn->proto == WireProto::kBinary ? conn->bdecoder.broken()
                                           : conn->decoder.overflowed();
}

bool FramedFrontend::RejectBrokenStream(const ConnPtr& conn) {
  if (conn->closed || conn->draining || !DecoderBroken(conn)) return false;
  // Slow-loris / runaway frame (either framing), or a binary stream that
  // lost sync: answer with a typed error in sequence (after any complete
  // frames that preceded it), then drain and close.
  bool oversized = conn->proto == WireProto::kBinary
                       ? conn->bdecoder.overflowed()
                       : conn->decoder.overflowed();
  if (oversized) oversized_frames_.fetch_add(1, std::memory_order_relaxed);
  CountProtocolError();
  std::string message =
      oversized ? "request frame exceeds " +
                      std::to_string(options_.max_frame_bytes) + " bytes"
                : "malformed binary frame header";
  AnswerLocally(conn,
                WireResponse::Error(conn->proto, WireError::kBadRequest,
                                    message),
                /*close=*/true);
  return true;
}

void FramedFrontend::ReadConnection(const ConnPtr& conn) {
  // Bounded reads per readiness event so one firehose connection cannot
  // starve its loop siblings; level-triggering redrives the remainder.
  char chunk[16384];
  int64_t received = 0;
  bool peer_eof = false;
  for (int i = 0; i < 4; ++i) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      received += n;
      if (!FeedConnection(conn,
                          std::string_view(chunk, static_cast<size_t>(n)))) {
        break;  // Preamble error or broken decoder; handled below.
      }
      // A short read almost always means the buffer is drained — skip the
      // EAGAIN-confirming recv (level-triggering re-fires on the rare
      // refill race, so this trades no correctness for one syscall).
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);  // Reset or hard error: responses are moot.
    return;
  }
  if (received > 0) {
    conn->last_activity_ms = SteadyNowMs();
    bytes_rx_.fetch_add(received, std::memory_order_relaxed);
    rx_bytes_total_->Increment(received);
  }

  DispatchFrames(conn);
  if (conn->closed) return;

  if (conn->preamble_error && !conn->draining) {
    // First bytes were 'B'-led but not "BNV2": the peer speaks neither
    // protocol. Answer in JSON (its encoding is unknowable) and close.
    CountProtocolError();
    AnswerLocally(conn,
                  WireResponse::Error(WireProto::kJson, WireError::kBadRequest,
                                      "unrecognized protocol preamble"),
                  /*close=*/true);
    return;
  }
  if (RejectBrokenStream(conn)) return;
  if (peer_eof) {
    // Half-close: the client is done sending. Already-buffered pipelined
    // frames still execute and their responses flush before the close. A
    // mid-frame EOF (partial binary frame, unterminated line, or a torn
    // preamble) has no buffered frame and closes cleanly here.
    conn->close_after_flush = true;
    UpdateInterest(conn);
    if (conn->inflight == 0 && conn->write_queue.empty() &&
        !HasBufferedFrame(conn)) {
      CloseConnection(conn);
    }
    return;
  }
  UpdateInterest(conn);
}

void FramedFrontend::DispatchFrames(const ConnPtr& conn) {
  // Re-entrancy guard: an inline completion below calls back into
  // Complete, whose refill would otherwise recurse here once per buffered
  // frame. The outer invocation's loop drains them instead.
  if (conn->dispatching) return;
  conn->dispatching = true;
  std::string payload;
  while (!conn->closed) {
    if (conn->draining) {
      // Shutdown drain: every queued pipelined request still gets a
      // definite answer instead of silence (no cap — answers are local).
      if (!NextBufferedFrame(conn, &payload)) break;
      if (payload.empty() && conn->proto == WireProto::kJson) continue;
      AnswerLocally(conn,
                    WireResponse::Error(conn->proto, WireError::kShuttingDown,
                                        draining_message_),
                    /*close=*/false);
      continue;
    }
    if (conn->inflight >= options_.max_inflight_per_connection) break;
    if (!NextBufferedFrame(conn, &payload)) break;
    if (payload.empty() && conn->proto == WireProto::kJson) continue;
    CountRequest();
    uint64_t seq = conn->next_dispatch_seq++;
    ++conn->inflight;
    dispatch_(conn, seq, payload, /*no_backlog=*/conn->inflight == 1);
  }
  conn->dispatching = false;
}

void FramedFrontend::AnswerLocally(const ConnPtr& conn, WireFrame response,
                                   bool close) {
  CountRequest();
  uint64_t seq = conn->next_dispatch_seq++;
  ++conn->inflight;
  if (close) {
    conn->draining = true;
    conn->close_after_flush = true;
  }
  Complete(conn, seq, std::move(response));
}

void FramedFrontend::Complete(const ConnPtr& conn, uint64_t seq,
                              WireFrame response) {
  if (conn->closed) return;  // Completion raced with a reset/force-close.
  --conn->inflight;
  if (seq == conn->next_release_seq && conn->completed.empty()) {
    // In-order completion — the only case on an inline answer and the
    // common one under pipelining — skips the reorder map and its per-node
    // allocation.
    size_t bytes = response.size();
    conn->write_queue_bytes += bytes;
    write_queue_bytes_->Add(static_cast<int64_t>(bytes));
    conn->write_queue.push_back(std::move(response));
    ++conn->next_release_seq;
  } else {
    conn->completed.emplace(seq, std::move(response));
    // Release every response whose predecessors are all out: pipelined
    // responses hit the wire in request arrival order, whatever order
    // they finished in.
    while (!conn->completed.empty() &&
           conn->completed.begin()->first == conn->next_release_seq) {
      WireFrame& ready = conn->completed.begin()->second;
      size_t bytes = ready.size();
      conn->write_queue_bytes += bytes;
      write_queue_bytes_->Add(static_cast<int64_t>(bytes));
      conn->write_queue.push_back(std::move(ready));
      conn->completed.erase(conn->completed.begin());
      ++conn->next_release_seq;
    }
  }
  FlushWrites(conn);
  if (conn->closed) return;
  // Capacity freed (inflight slot and possibly queue bytes): pull more
  // buffered frames — which may reach an oversized line — then recompute
  // read interest.
  if (HasBufferedFrame(conn)) {
    DispatchFrames(conn);
    if (RejectBrokenStream(conn)) return;
  }
  if (!conn->closed) UpdateInterest(conn);
}

void FramedFrontend::FlushWrites(const ConnPtr& conn) {
  while (!conn->write_queue.empty()) {
    // Coalesce the ready responses into one sendmsg. Template-served
    // responses contribute their shared body segment by reference — the
    // kernel reads the cached bytes in place, no copy, no re-render.
    iovec iov[kMaxIov];
    size_t iov_count = 0;
    size_t batch_bytes = 0;
    int64_t frames = 0;
    size_t skip = conn->write_offset;  // Partially-written front frame.
    for (const WireFrame& frame : conn->write_queue) {
      if (iov_count + 2 > kMaxIov) break;
      if (skip < frame.head.size()) {
        iov[iov_count].iov_base = const_cast<char*>(frame.head.data()) + skip;
        iov[iov_count].iov_len = frame.head.size() - skip;
        batch_bytes += iov[iov_count].iov_len;
        ++iov_count;
        skip = 0;
      } else {
        skip -= frame.head.size();
      }
      if (frame.body != nullptr) {
        if (skip < frame.body->size()) {
          iov[iov_count].iov_base =
              const_cast<char*>(frame.body->data()) + skip;
          iov[iov_count].iov_len = frame.body->size() - skip;
          batch_bytes += iov[iov_count].iov_len;
          ++iov_count;
          skip = 0;
        } else {
          skip -= frame.body->size();
        }
      }
      ++frames;
    }
    if (iov_count == 0) break;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);  // Peer gone; drop the queue.
      return;
    }
    flush_batch_->Record(frames);
    bytes_tx_.fetch_add(n, std::memory_order_relaxed);
    tx_bytes_total_->Increment(n);
    conn->write_queue_bytes -= static_cast<size_t>(n);
    write_queue_bytes_->Add(-static_cast<int64_t>(n));
    conn->write_offset += static_cast<size_t>(n);
    while (!conn->write_queue.empty() &&
           conn->write_offset >= conn->write_queue.front().size()) {
      conn->write_offset -= conn->write_queue.front().size();
      conn->write_queue.pop_front();
    }
    if (static_cast<size_t>(n) < batch_bytes) break;  // Socket buffer full.
  }
  UpdateInterest(conn);
  if (conn->close_after_flush && conn->inflight == 0 &&
      conn->write_queue.empty() && conn->completed.empty() &&
      !HasBufferedFrame(conn)) {
    CloseConnection(conn);
  }
}

void FramedFrontend::UpdateInterest(const ConnPtr& conn) {
  if (conn->closed) return;
  bool want_read = !conn->draining && !conn->close_after_flush &&
                   !DecoderBroken(conn) &&
                   conn->inflight < options_.max_inflight_per_connection &&
                   conn->write_queue_bytes < options_.max_write_queue_bytes;
  bool want_write = !conn->write_queue.empty();
  if (want_read == conn->reading && want_write == conn->want_write) return;
  uint32_t events = (want_read ? EventLoop::kReadable : 0) |
                    (want_write ? EventLoop::kWritable : 0);
  loops_[conn->loop_index]->Modify(conn->fd, events);
  conn->reading = want_read;
  conn->want_write = want_write;
}

void FramedFrontend::ArmIdleTimer(const ConnPtr& conn) {
  if (options_.idle_timeout_ms <= 0 || conn->closed) return;
  int64_t idle = SteadyNowMs() - conn->last_activity_ms;
  int64_t remaining = options_.idle_timeout_ms - idle;
  if (remaining <= 0) {
    // Only reap a connection that is truly quiet — in-flight work or
    // unflushed responses count as activity.
    if (conn->inflight == 0 && conn->write_queue.empty() &&
        conn->completed.empty()) {
      connections_idle_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(conn);
      return;
    }
    remaining = options_.idle_timeout_ms;
  }
  conn->idle_timer = loops_[conn->loop_index]->AddTimer(
      remaining, [this, conn] {
        conn->idle_timer = kInvalidTimer;
        ArmIdleTimer(conn);
      });
}

void FramedFrontend::CloseConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  EventLoop* loop = loops_[conn->loop_index].get();
  if (conn->idle_timer != kInvalidTimer) {
    loop->CancelTimer(conn->idle_timer);
    conn->idle_timer = kInvalidTimer;
  }
  loop->Remove(conn->fd);
  ::close(conn->fd);
  if (conn->write_queue_bytes > 0) {
    write_queue_bytes_->Add(-static_cast<int64_t>(conn->write_queue_bytes));
    conn->write_queue_bytes = 0;
  }
  loop_conns_[conn->loop_index].erase(conn->fd);
  ReleaseOpenSlot();
}

void FramedFrontend::DrainConnection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->draining = true;
  conn->close_after_flush = true;
  DispatchFrames(conn);  // Buffered pipelined frames answer SHUTTING_DOWN.
  UpdateInterest(conn);
  if (conn->inflight == 0 && conn->write_queue.empty() &&
      conn->completed.empty()) {
    CloseConnection(conn);
  }
}

void FramedFrontend::ReleaseOpenSlot() {
  connections_open_.fetch_sub(1, std::memory_order_acq_rel);
  open_connections_->Add(-1);
  drain_cv_.notify_all();
}

void FramedFrontend::CountRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_total_->Increment();
}

void FramedFrontend::CountProtocolError() {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  protocol_errors_total_->Increment();
}

void FramedFrontend::ForEachConnection(
    void (FramedFrontend::*fn)(const ConnPtr&)) {
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->RunInLoop([this, i, fn] {
      // Snapshot first: closing erases from the table being walked.
      std::vector<ConnPtr> conns;
      conns.reserve(loop_conns_[i].size());
      for (const auto& [fd, conn] : loop_conns_[i]) conns.push_back(conn);
      for (const ConnPtr& conn : conns) (this->*fn)(conn);
    });
  }
}

void FramedFrontend::AwaitClosed(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                     [this] { return connections_open_.load() == 0; });
}

void FramedFrontend::Shutdown(
    const std::function<void()>& settle,
    const std::function<void(size_t)>& teardown_loop) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (!started_.load() || shutting_down()) return;
  shutting_down_.store(true, std::memory_order_release);

  // 1. Stop admitting: unregister and close the listener on its loop so
  //    no accept races the teardown.
  {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    loops_[0]->RunInLoop([&] {
      loops_[0]->Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  // 2. Drain every connection: dispatched requests complete normally,
  //    buffered-but-undispatched pipelined frames answer SHUTTING_DOWN,
  //    write queues flush before fds close.
  ForEachConnection(&FramedFrontend::DrainConnection);

  // 3. The owner's dispatched work finishes (its completions re-enter the
  //    still-running loops and flush).
  if (settle) settle();

  // 4. Bounded drain, then force-close stragglers (dead peers that never
  //    drain their receive window, requests that will never complete).
  AwaitClosed(options_.drain_deadline_ms);
  if (connections_open_.load() > 0) {
    ForEachConnection(&FramedFrontend::CloseConnection);
    AwaitClosed(1000);
  }

  // 5. The owner's loop-resident state goes down on its own loops. Stop()
  //    drains functions enqueued before it, so these run before the loops
  //    exit.
  if (teardown_loop) {
    for (size_t i = 0; i < loops_.size(); ++i) {
      loops_[i]->RunInLoop([&teardown_loop, i] { teardown_loop(i); });
    }
  }

  // 6. Stop and join the reactors.
  for (std::unique_ptr<EventLoop>& loop : loops_) loop->Stop();
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
}

FrontendStats FramedFrontend::stats() const {
  FrontendStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.connections_idle_closed =
      connections_idle_closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.oversized_frames = oversized_frames_.load(std::memory_order_relaxed);
  s.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  s.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    s.epoll_wakeups += loop->wakeups();
  }
  return s;
}

}  // namespace bionav
