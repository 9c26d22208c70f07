// Reactor-path tests of the event-driven NavServer, exercising behaviors
// the request/response e2e suite cannot see: incremental frame assembly
// from byte-dribbled input (slow-loris), pipelined requests answered in
// arrival order, oversized-frame termination with a typed error, idle-TTL
// reaping, client-side receive deadlines, and the shutdown drain answering
// queued-but-undispatched pipelined requests with SHUTTING_DOWN.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

/// Small paper workload shared by the tests in this file (same scale as
/// server_e2e_test — a few seconds to build once).
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

/// A blocking loopback socket speaking raw bytes — for the tests that need
/// to control framing below NavClient (dribbled bytes, batched pipelines,
/// missing newlines).
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool SendAll(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking read of the next newline-terminated line (without the
  /// newline); false on EOF or error.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  /// Blocking read until the server closes; returns every complete line
  /// received (buffered plus remaining on the wire).
  std::vector<std::string> ReadLinesUntilEof() {
    std::vector<std::string> lines;
    std::string line;
    while (ReadLine(&line)) lines.push_back(line);
    return lines;
  }

  /// True when the next recv reports EOF (server closed the connection).
  bool AtEof() {
    char byte;
    ssize_t n;
    do {
      n = ::recv(fd_, &byte, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

  /// Half-closes the write side (the server sees EOF after the bytes sent
  /// so far) while leaving the read side open for its response.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Blocking read of the next binary v2 frame's body (magic and length
  /// prefix validated and consumed); false on EOF or a garbled stream.
  bool ReadFrameBody(std::string* body) {
    while (true) {
      if (buffer_.size() >= kBinaryFrameHeaderBytes) {
        if (static_cast<uint8_t>(buffer_[0]) != kBinaryFrameMagic) {
          return false;
        }
        uint32_t length = 0;
        std::memcpy(&length, buffer_.data() + 1, sizeof(length));
        if (buffer_.size() >= kBinaryFrameHeaderBytes + length) {
          body->assign(buffer_, kBinaryFrameHeaderBytes, length);
          buffer_.erase(0, kBinaryFrameHeaderBytes + length);
          return true;
        }
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The 4-byte binary-negotiation preamble as a sendable string.
std::string Preamble() {
  return std::string(kBinaryPreamble, sizeof(kBinaryPreamble));
}

std::string RequestLine(RequestOp op) {
  Request request;
  request.op = op;
  return SerializeRequest(request) + "\n";
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.ValueOrDie() : JsonValue();
}

std::unique_ptr<NavServer> StartServer(NavServerOptions options) {
  const Workload& w = SmallWorkload();
  static const EUtilsClient* eutils =
      new EUtilsClient(SmallWorkload().corpus().MakeClient());
  auto server =
      std::make_unique<NavServer>(&w.hierarchy(), eutils, nullptr, options);
  EXPECT_TRUE(server->Start().ok());
  EXPECT_GT(server->port(), 0);
  return server;
}

TEST(NavServerReactor, SlowLorisDribbleStillAssemblesFrames) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // One STATS request delivered one byte per send(): the reactor must
  // assemble the frame incrementally across partial reads without
  // dedicating a thread to this connection.
  const std::string line = RequestLine(RequestOp::kStats);
  for (char byte : line) {
    ASSERT_TRUE(conn.SendAll(std::string_view(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response;
  ASSERT_TRUE(conn.ReadLine(&response));
  EXPECT_TRUE(MustParse(response).BoolOr("ok", false)) << response;
  EXPECT_EQ(server->stats().protocol_errors, 0);
  server->Shutdown();
}

TEST(NavServerReactor, PipelinedRequestsInOneSendAnswerInArrivalOrder) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // Two requests in a single send() — the second must not be lost, and the
  // responses must come back in arrival order. STATS and METRICS responses
  // are distinguishable (METRICS carries "text"), so order is observable.
  ASSERT_TRUE(conn.SendAll(RequestLine(RequestOp::kStats) +
                           RequestLine(RequestOp::kMetrics)));
  std::string first, second;
  ASSERT_TRUE(conn.ReadLine(&first));
  ASSERT_TRUE(conn.ReadLine(&second));
  JsonValue first_doc = MustParse(first), second_doc = MustParse(second);
  EXPECT_TRUE(first_doc.BoolOr("ok", false));
  EXPECT_TRUE(second_doc.BoolOr("ok", false));
  EXPECT_EQ(first_doc.Find("text"), nullptr) << "STATS answered out of order";
  ASSERT_NE(second_doc.Find("text"), nullptr)
      << "METRICS answered out of order";
  server->Shutdown();
}

TEST(NavServerReactor, DeepPipelineKeepsOrderThroughBackpressure) {
  NavServerOptions options;
  options.threads = 2;
  options.max_inflight_per_connection = 4;  // Force dispatch in waves.
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // 32 alternating STATS/METRICS in one burst: the inflight cap pauses
  // reading mid-pipeline, yet every response must arrive, in order.
  const int kRequests = 32;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += RequestLine(i % 2 == 0 ? RequestOp::kStats : RequestOp::kMetrics);
  }
  ASSERT_TRUE(conn.SendAll(burst));
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(conn.ReadLine(&response)) << "response " << i << " lost";
    JsonValue doc = MustParse(response);
    EXPECT_TRUE(doc.BoolOr("ok", false));
    EXPECT_EQ(doc.Find("text") != nullptr, i % 2 == 1)
        << "response " << i << " out of order";
  }
  EXPECT_EQ(server->stats().requests, kRequests);
  server->Shutdown();
}

TEST(NavServerReactor, MalformedLinesAnswerInPlaceWithinPipeline) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // Garbage between two valid requests: errors are responses too, slotted
  // at the garbage line's position, and the connection keeps serving.
  ASSERT_TRUE(conn.SendAll(RequestLine(RequestOp::kStats) +
                           "this is not json\n" +
                           RequestLine(RequestOp::kStats)));
  std::string lines[3];
  for (std::string& line : lines) ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_TRUE(MustParse(lines[0]).BoolOr("ok", false));
  JsonValue error_doc = MustParse(lines[1]);
  EXPECT_FALSE(error_doc.BoolOr("ok", true));
  EXPECT_EQ(error_doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_TRUE(MustParse(lines[2]).BoolOr("ok", false));
  EXPECT_GE(server->stats().protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, OversizedFrameGetsTypedErrorThenClose) {
  NavServerOptions options;
  options.max_frame_bytes = 1024;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // 4 KiB with no newline: past the cap the server must answer one typed
  // BAD_REQUEST and close, not buffer forever (slow-loris defense).
  ASSERT_TRUE(conn.SendAll(std::string(4096, 'x')));
  std::string response;
  ASSERT_TRUE(conn.ReadLine(&response));
  JsonValue doc = MustParse(response);
  EXPECT_FALSE(doc.BoolOr("ok", true));
  EXPECT_EQ(doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.StringOr("message", "").find("exceeds"), std::string::npos)
      << response;
  EXPECT_TRUE(conn.AtEof()) << "connection left open after oversized frame";
  NavServerStats stats = server->stats();
  EXPECT_EQ(stats.oversized_frames, 1);
  EXPECT_GE(stats.protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, OversizedCompleteLineGetsTypedErrorThenClose) {
  NavServerOptions options;
  options.max_frame_bytes = 1024;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // A STATS line, then a ~4 KiB QUERY line that does end in '\n', in one
  // write: the terminated line is held to the same cap as an unterminated
  // tail, so STATS is answered, then one typed BAD_REQUEST, then a close —
  // and the QUERY never runs.
  Request query;
  query.op = RequestOp::kQuery;
  query.query = std::string(4096, 'q');
  std::string big = SerializeRequest(query) + "\n";
  ASSERT_GT(big.size(), 4096u);
  ASSERT_TRUE(conn.SendAll(RequestLine(RequestOp::kStats) + big));

  std::string response;
  ASSERT_TRUE(conn.ReadLine(&response));
  EXPECT_TRUE(MustParse(response).BoolOr("ok", false)) << response;
  ASSERT_TRUE(conn.ReadLine(&response));
  JsonValue doc = MustParse(response);
  EXPECT_FALSE(doc.BoolOr("ok", true));
  EXPECT_EQ(doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.StringOr("message", "").find("request frame exceeds 1024"),
            std::string::npos)
      << response;
  EXPECT_TRUE(conn.AtEof()) << "connection left open after oversized line";
  NavServerStats stats = server->stats();
  EXPECT_EQ(stats.oversized_frames, 1);
  EXPECT_EQ(stats.sessions.created, 0) << "oversized QUERY was executed";
  server->Shutdown();
}

TEST(NavServerReactor, IdleConnectionReapedByTimerWheel) {
  NavServerOptions options;
  options.idle_timeout_ms = 100;
  auto server = StartServer(options);
  RawConn idle(server->port());
  ASSERT_TRUE(idle.ok());

  // A connection that never sends a byte is closed by the idle TTL; the
  // blocking recv returns EOF once the reactor reaps it.
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(idle.AtEof());
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(waited.count(), 50) << "reaped before the idle deadline";
  EXPECT_LT(waited.count(), 5000) << "idle reap took implausibly long";
  EXPECT_EQ(server->stats().connections_idle_closed, 1);
  server->Shutdown();
}

TEST(NavServerReactor, ActiveConnectionSurvivesIdleWindow) {
  NavServerOptions options;
  options.idle_timeout_ms = 150;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // Traffic inside every window must keep resetting the TTL.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(conn.SendAll(RequestLine(RequestOp::kStats)));
    std::string response;
    ASSERT_TRUE(conn.ReadLine(&response)) << "closed despite activity";
    EXPECT_TRUE(MustParse(response).BoolOr("ok", false));
  }
  EXPECT_EQ(server->stats().connections_idle_closed, 0);
  server->Shutdown();
}

TEST(NavServerReactor, ManyConcurrentConnectionsOnFewIoThreads) {
  NavServerOptions options;
  options.threads = 2;
  options.io_threads = 2;
  auto server = StartServer(options);

  // 96 live connections on two reactor threads — far beyond what the old
  // thread-per-connection design could hold at this thread count.
  const int kConns = 96;
  std::vector<std::unique_ptr<NavClient>> clients;
  for (int i = 0; i < kConns; ++i) {
    auto connected = NavClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    clients.push_back(connected.TakeValue());
  }
  for (auto& client : clients) {
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  NavServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_open, kConns);
  EXPECT_EQ(stats.connections_shed, 0);
  clients.clear();
  server->Shutdown();
  EXPECT_EQ(server->stats().connections_open, 0);
}

TEST(NavServerReactor, ShutdownAnswersQueuedPipelinedRequests) {
  NavServerOptions options;
  options.threads = 1;
  options.max_inflight_per_connection = 1;  // Keep the tail undispatched.
  // No artifact cache: every QUERY is a pool-bound tree build, so none
  // take the reactor's inline fast path and the tail stays queued.
  options.session.cache_enabled = false;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // 24 pipelined QUERYs land in the decoder; the inflight cap of one means
  // at most one is computing (a cold tree build, several ms) when Shutdown
  // drains. Every queued request must still receive a definite response —
  // SHUTTING_DOWN, not silence — before the connection closes.
  const int kRequests = 24;
  Request query;
  query.op = RequestOp::kQuery;
  query.query = SmallWorkload().query(0).spec.keyword;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += SerializeRequest(query) + "\n";
  }
  ASSERT_TRUE(conn.SendAll(burst));
  // The first response proves the whole single-segment burst is decoded
  // (the reactor drained the socket long before request 0 finished
  // computing); only then is Shutdown racing against queued work.
  std::string first;
  ASSERT_TRUE(conn.ReadLine(&first));
  ASSERT_TRUE(MustParse(first).BoolOr("ok", false)) << first;
  server->Shutdown();

  std::vector<std::string> lines = conn.ReadLinesUntilEof();
  lines.insert(lines.begin(), first);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests))
      << "pipelined requests dropped without a response";
  int completed = 0, refused = 0;
  for (int i = 0; i < kRequests; ++i) {
    JsonValue doc = MustParse(lines[i]);
    if (doc.BoolOr("ok", false)) {
      ++completed;
    } else {
      EXPECT_EQ(doc.StringOr("error", ""), "SHUTTING_DOWN") << lines[i];
      ++refused;
    }
  }
  EXPECT_EQ(completed + refused, kRequests);
  // The drain hit while the cold QUERY computed, so the undispatched tail
  // was refused; the in-flight head completed normally.
  EXPECT_GE(refused, 1) << "drain never saw a queued request";
}

// ---------------------------------------------------------------------------
// Binary protocol hardening: every malformed-frame shape must end in a
// typed error or a clean close — never a hang, never a silent drop.
// ---------------------------------------------------------------------------

TEST(NavServerReactor, BinaryNegotiationServesBinaryFrames) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  Request stats;
  stats.op = RequestOp::kStats;
  ASSERT_TRUE(conn.SendAll(Preamble() + SerializeRequestBinary(stats)));
  std::string body;
  ASSERT_TRUE(conn.ReadFrameBody(&body));
  Result<JsonValue> doc = DecodeBinaryResponse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc.ValueOrDie().BoolOr("ok", false));
  EXPECT_EQ(doc.ValueOrDie().StringOr("op", ""), "STATS");
  EXPECT_EQ(server->stats().protocol_errors, 0);
  server->Shutdown();
}

TEST(NavServerReactor, TruncatedLengthPrefixThenEofClosesCleanly) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // Magic plus two of the four length bytes, then EOF: an incomplete
  // header is not an error — the peer simply went away mid-frame, and the
  // server must close without a response and without hanging.
  std::string torn;
  torn += Preamble();
  torn.push_back(static_cast<char>(kBinaryFrameMagic));
  torn.push_back('\x10');
  torn.push_back('\x00');
  ASSERT_TRUE(conn.SendAll(torn));
  conn.ShutdownWrite();
  EXPECT_TRUE(conn.AtEof()) << "server answered or stayed open on torn header";
  server->Shutdown();
  EXPECT_EQ(server->stats().protocol_errors, 0);
}

TEST(NavServerReactor, MidFrameEofClosesCleanly) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // A complete, well-formed header promising 64 body bytes, of which only
  // 8 ever arrive: on EOF the server discards the torn frame and closes.
  std::string torn = Preamble();
  torn.push_back(static_cast<char>(kBinaryFrameMagic));
  uint32_t declared = 64;
  torn.append(reinterpret_cast<const char*>(&declared), sizeof(declared));
  torn.append(8, '\x02');
  ASSERT_TRUE(conn.SendAll(torn));
  conn.ShutdownWrite();
  EXPECT_TRUE(conn.AtEof()) << "server answered or stayed open mid-frame";
  server->Shutdown();
  EXPECT_EQ(server->stats().protocol_errors, 0);
}

TEST(NavServerReactor, BinaryFramePastCapAnswersTypedErrorThenClose) {
  NavServerOptions options;
  options.max_frame_bytes = 1024;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // The length prefix alone declares 1 MiB: the overflow must latch on
  // the prefix (no body ever sent), answer one typed binary error, and
  // close — the binary analogue of the oversized-line defense.
  std::string frame = Preamble();
  frame.push_back(static_cast<char>(kBinaryFrameMagic));
  uint32_t declared = 1u << 20;
  frame.append(reinterpret_cast<const char*>(&declared), sizeof(declared));
  ASSERT_TRUE(conn.SendAll(frame));
  std::string body;
  ASSERT_TRUE(conn.ReadFrameBody(&body)) << "no error frame before close";
  Result<JsonValue> doc = DecodeBinaryResponse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(doc.ValueOrDie().BoolOr("ok", true));
  EXPECT_EQ(doc.ValueOrDie().StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.ValueOrDie().StringOr("message", "").find("exceeds"),
            std::string::npos);
  EXPECT_TRUE(conn.AtEof()) << "connection left open after oversized frame";
  NavServerStats stats = server->stats();
  EXPECT_EQ(stats.oversized_frames, 1);
  EXPECT_GE(stats.protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, GarbageVersionByteAnswersInPlaceAndKeepsServing) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // A well-framed body whose version byte is garbage: a parse error, not
  // a stream error — answered in place, connection keeps serving.
  Request stats;
  stats.op = RequestOp::kStats;
  std::string valid = SerializeRequestBinary(stats);
  std::string garbled = valid;
  garbled[kBinaryFrameHeaderBytes] = '\x09';
  ASSERT_TRUE(conn.SendAll(Preamble() + garbled + valid));
  std::string body;
  ASSERT_TRUE(conn.ReadFrameBody(&body));
  Result<JsonValue> error_doc = DecodeBinaryResponse(body);
  ASSERT_TRUE(error_doc.ok()) << error_doc.status().ToString();
  EXPECT_FALSE(error_doc.ValueOrDie().BoolOr("ok", true));
  EXPECT_EQ(error_doc.ValueOrDie().StringOr("error", ""),
            "UNSUPPORTED_VERSION");
  ASSERT_TRUE(conn.ReadFrameBody(&body)) << "connection died after bad frame";
  Result<JsonValue> ok_doc = DecodeBinaryResponse(body);
  ASSERT_TRUE(ok_doc.ok());
  EXPECT_TRUE(ok_doc.ValueOrDie().BoolOr("ok", false));
  EXPECT_GE(server->stats().protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, GarbageFrameMagicAnswersTypedErrorThenClose) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // After a clean negotiation, a frame that does not start with the magic
  // byte makes the stream unrecoverable (framing is lost): one typed
  // error, then close.
  ASSERT_TRUE(conn.SendAll(Preamble() + "\x41garbage-not-a-frame"));
  std::string body;
  ASSERT_TRUE(conn.ReadFrameBody(&body)) << "no error frame before close";
  Result<JsonValue> doc = DecodeBinaryResponse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(doc.ValueOrDie().BoolOr("ok", true));
  EXPECT_EQ(doc.ValueOrDie().StringOr("error", ""), "BAD_REQUEST");
  EXPECT_TRUE(conn.AtEof()) << "connection left open after garbled stream";
  EXPECT_GE(server->stats().protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, UnrecognizedPreambleAnswersJsonErrorThenClose) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // 'B'-led but not "BNV2": neither valid JSON nor a known binary
  // protocol. The server answers in JSON (the only encoding it can assume
  // the peer reads) and closes.
  ASSERT_TRUE(conn.SendAll("BNVX{\"v\":1,\"op\":\"STATS\"}\n"));
  std::string line;
  ASSERT_TRUE(conn.ReadLine(&line));
  JsonValue doc = MustParse(line);
  EXPECT_FALSE(doc.BoolOr("ok", true));
  EXPECT_EQ(doc.StringOr("error", ""), "BAD_REQUEST");
  EXPECT_NE(doc.StringOr("message", "").find("preamble"), std::string::npos);
  EXPECT_TRUE(conn.AtEof()) << "connection left open after bad preamble";
  EXPECT_GE(server->stats().protocol_errors, 1);
  server->Shutdown();
}

TEST(NavServerReactor, MixedProtocolPipelineOnBinaryConnection) {
  auto server = StartServer(NavServerOptions());
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());

  // Preamble and two pipelined binary requests in one send: negotiation
  // must not eat into the first frame, and order is preserved.
  Request stats;
  stats.op = RequestOp::kStats;
  Request metrics;
  metrics.op = RequestOp::kMetrics;
  ASSERT_TRUE(conn.SendAll(Preamble() + SerializeRequestBinary(stats) +
                           SerializeRequestBinary(metrics)));
  std::string body;
  ASSERT_TRUE(conn.ReadFrameBody(&body));
  Result<JsonValue> first = DecodeBinaryResponse(body);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.ValueOrDie().BoolOr("ok", false));
  EXPECT_EQ(first.ValueOrDie().Find("text"), nullptr)
      << "STATS answered out of order";
  ASSERT_TRUE(conn.ReadFrameBody(&body));
  Result<JsonValue> second = DecodeBinaryResponse(body);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.ValueOrDie().Find("text"), nullptr)
      << "METRICS answered out of order";
  server->Shutdown();
}

TEST(NavServerReactor, ClientRecvTimeoutSurfacesDeadlineExceeded) {
  // A listener that accepts into its backlog but never serves: the client
  // connects fine, then the response deadline must trip as a typed
  // kDeadlineExceeded, not hang or a generic IOError.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  NavClientOptions client_options;
  client_options.recv_timeout_ms = 200;
  auto connected = NavClient::Connect("127.0.0.1", port, client_options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto start = std::chrono::steady_clock::now();
  auto stats = connected.ValueOrDie()->Stats();
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded)
      << stats.status().ToString();
  EXPECT_GE(waited.count(), 150) << "deadline tripped early";
  ::close(listener);
}

}  // namespace
}  // namespace bionav
