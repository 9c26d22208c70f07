#include "server/nav_client.h"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "util/string_util.h"

namespace bionav {

namespace {

/// connect() bounded by a deadline: the socket goes non-blocking for the
/// handshake (poll for writability, then harvest SO_ERROR) and returns to
/// blocking mode afterwards. timeout_ms <= 0 means plain blocking connect.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addrlen,
                          int64_t timeout_ms) {
  if (timeout_ms <= 0) {
    while (::connect(fd, addr, addrlen) != 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    return Status::OK();
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  Status status = Status::OK();
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      status = Status::IOError(std::string("connect: ") +
                               std::strerror(errno));
    } else {
      pollfd pfd{fd, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        status = Status::DeadlineExceeded(
            "connect timed out after " + std::to_string(timeout_ms) + " ms");
      } else if (ready < 0) {
        status = Status::IOError(std::string("poll: ") + std::strerror(errno));
      } else {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) {
          status = Status::IOError(std::string("connect: ") +
                                   std::strerror(soerr));
        }
      }
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return status;
}

}  // namespace

Result<std::unique_ptr<NavClient>> NavClient::Connect(
    const std::string& host, int port, NavClientOptions options) {
  // Full-jitter backoff: each retry sleeps uniform(0, cap) with the cap
  // doubling 50ms -> 1s. A deterministic ladder synchronizes every client
  // racing one restarting backend into retry waves that land together;
  // the jitter spreads the reconnect burst across the whole window.
  std::minstd_rand rng(std::random_device{}());
  int64_t cap_ms = 50;
  for (int attempt = 0;; ++attempt) {
    Result<std::unique_ptr<NavClient>> connected =
        ConnectOnce(host, port, options);
    if (connected.ok() || attempt >= options.connect_retries) {
      return connected;
    }
    std::uniform_int_distribution<int64_t> jitter(0, cap_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(jitter(rng)));
    cap_ms = std::min<int64_t>(cap_ms * 2, 1000);
  }
}

Result<std::unique_ptr<NavClient>> NavClient::ConnectOnce(
    const std::string& host, int port, const NavClientOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &result);
  if (rc != 0) {
    return Status::IOError("getaddrinfo(" + host + "): " + gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::IOError("no usable address for " + host);
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    last = ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                              options.connect_timeout_ms);
    if (last.ok()) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    if (last.code() == StatusCode::kDeadlineExceeded) return last;
    return Status::IOError("cannot connect to " + host + ":" +
                           std::to_string(port) + ": " + last.message());
  }
  if (options.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options.recv_timeout_ms / 1000;
    tv.tv_usec = (options.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (options.proto == WireProto::kBinary) {
    // Negotiate v2 before the first request: the server switches this
    // connection to binary framing on these four bytes.
    size_t sent = 0;
    while (sent < sizeof(kBinaryPreamble)) {
      ssize_t n = ::send(fd, kBinaryPreamble + sent,
                         sizeof(kBinaryPreamble) - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        ::close(fd);
        return Status::IOError("connection lost while negotiating protocol");
      }
      sent += static_cast<size_t>(n);
    }
  }
  return std::unique_ptr<NavClient>(new NavClient(fd, options.proto));
}

NavClient::~NavClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status NavClient::Send(const Request& request) {
  const std::string frame = EncodeRequestFrame(
      json_fallback_ ? WireProto::kJson : proto_, request);
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("connection lost while sending request");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status NavClient::ReadFrame(std::string* payload) {
  while (true) {
    const bool binary = proto_ == WireProto::kBinary && !json_fallback_;
    if (binary ? bdecoder_.Next(payload) : decoder_.Next(payload)) {
      return Status::OK();
    }
    if (binary && bdecoder_.broken()) {
      return Status::Internal("malformed binary response frame");
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("connection closed before response");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired with the response still outstanding.
        return Status::DeadlineExceeded("timed out waiting for response");
      }
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (binary && !saw_response_byte_ && chunk[0] == '{') {
      // The server answered in JSON before reading our preamble
      // (accept-path shedding) — it is about to close. Fall back to line
      // framing so the typed error surfaces normally.
      json_fallback_ = true;
    }
    saw_response_byte_ = true;
    const std::string_view bytes(chunk, static_cast<size_t>(n));
    if (binary && !json_fallback_) {
      if (!bdecoder_.Feed(bytes)) {
        return Status::Internal("malformed binary response frame");
      }
    } else if (!decoder_.Feed(bytes)) {
      return Status::Internal("response frame exceeds client frame limit");
    }
  }
}

Result<JsonValue> NavClient::Receive() {
  // One response frame per request, in order (the server releases pipelined
  // responses in arrival order, so Receive N pairs with Send N).
  std::string payload;
  Status read = ReadFrame(&payload);
  if (!read.ok()) return read;
  return DecodeResponse(json_fallback_ ? WireProto::kJson : proto_, payload);
}

Result<JsonValue> NavClient::CallRaw(const Request& request) {
  Status sent = Send(request);
  if (!sent.ok()) return sent;
  return Receive();
}

Result<Response> NavClient::Call(const Request& request) {
  Result<JsonValue> doc = CallRaw(request);
  if (!doc.ok()) return doc.status();
  Result<Response> reply = ReadResponse(request.op, doc.ValueOrDie());
  if (reply.ok() && !reply.ValueOrDie().ok) {
    return StatusFromWireError(reply.ValueOrDie().error,
                               reply.ValueOrDie().message);
  }
  return reply;
}

Result<NavClient::QueryReply> NavClient::Query(const std::string& query) {
  Request request;
  request.op = RequestOp::kQuery;
  request.query = query;
  return Call(request);
}

Result<std::vector<NavNodeId>> NavClient::Expand(const std::string& token,
                                                 NavNodeId node) {
  Request request;
  request.op = RequestOp::kExpand;
  request.token = token;
  request.node = node;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().revealed);
}

Result<NavClient::BatchExpandReply> NavClient::ExpandMany(
    const std::string& token, const std::vector<NavNodeId>& nodes) {
  Request request;
  request.op = RequestOp::kBatchExpand;
  request.token = token;
  request.nodes = nodes;
  return Call(request);
}

Result<NavClient::ShowReply> NavClient::ShowResults(const std::string& token,
                                                    NavNodeId node,
                                                    uint64_t retstart,
                                                    uint64_t retmax) {
  Request request;
  request.op = RequestOp::kShowResults;
  request.token = token;
  request.node = node;
  request.retstart = retstart;
  request.retmax = retmax;
  return Call(request);
}

Result<bool> NavClient::Backtrack(const std::string& token) {
  Request request;
  request.op = RequestOp::kBacktrack;
  request.token = token;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return response.ValueOrDie().undone;
}

Result<NavClient::FindReply> NavClient::Find(const std::string& token,
                                             ConceptId concept_id) {
  Request request;
  request.op = RequestOp::kFind;
  request.token = token;
  request.concept_id = concept_id;
  return Call(request);
}

Result<std::string> NavClient::View(const std::string& token, int depth) {
  Request request;
  request.op = RequestOp::kView;
  request.token = token;
  request.depth = depth;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return WriteJson(response.ValueOrDie().tree);
}

Status NavClient::CloseSession(const std::string& token) {
  Request request;
  request.op = RequestOp::kClose;
  request.token = token;
  Result<Response> response = Call(request);
  return response.ok() ? Status::OK() : response.status();
}

Result<JsonValue> NavClient::Stats() {
  Request request;
  request.op = RequestOp::kStats;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().document);
}

Result<std::string> NavClient::Metrics() {
  Request request;
  request.op = RequestOp::kMetrics;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().text);
}

Result<std::string> NavClient::FetchArtifact(const std::string& key) {
  Request request;
  request.op = RequestOp::kFetchArtifact;
  request.query = key;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  std::string record;
  if (!Base64Decode(response.ValueOrDie().artifact, &record)) {
    return Status::Internal("FETCH_ARTIFACT artifact is not valid base64");
  }
  return record;
}

Result<JsonValue> NavClient::Topology() {
  Request request;
  request.op = RequestOp::kTopology;
  Result<Response> response = Call(request);
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().document);
}

}  // namespace bionav
