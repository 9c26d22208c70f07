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

/// Reads a reply number as a `T`: true only when it is integral and inside
/// T's range, the rule the request decoders apply. A reply is input like a
/// request, so 1e300 must not reach an undefined double conversion and
/// 2^40 must not wrap into a valid-looking id.
template <typename T>
bool ToInteger(const JsonValue& value, T* out) {
  if (!value.is_number()) return false;
  if (value.exact_uint()) {  // Integer literals stay exact past 2^53.
    if (*value.exact_uint() >
        static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(*value.exact_uint());
    return true;
  }
  const double d = value.number_value();
  // [lo, hi) bounds every T exactly: hi = 2^digits, lo = -hi or 0.
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  if (d != std::trunc(d) || !(d >= lo && d < hi)) return false;
  *out = static_cast<T>(d);
  return true;
}

/// Reads integer member `key` of a reply into `*out`; an absent member
/// leaves `def`. A member that is not such an integer is Internal.
template <typename T>
Status ReadInt(const JsonValue& doc, std::string_view key, T def, T* out) {
  *out = def;
  const JsonValue* value = doc.Find(key);
  if (value == nullptr || ToInteger(*value, out)) return Status::OK();
  return Status::Internal("response field \"" + std::string(key) +
                          "\" is not an integer in range");
}

/// Appends the node ids of a response's id array; Internal naming `what`
/// when the array is absent or holds anything but in-range integers.
Status ReadNodeIds(const JsonValue* array, std::string_view what,
                   std::vector<NavNodeId>* out) {
  if (array == nullptr || !array->is_array()) {
    return Status::Internal(std::string(what) + " carries no id array");
  }
  for (const JsonValue& item : array->array_items()) {
    NavNodeId id = kInvalidNavNode;
    if (!ToInteger(item, &id)) {
      return Status::Internal(std::string(what) +
                              " carries a node id that is not an integer "
                              "in range");
    }
    out->push_back(id);
  }
  return Status::OK();
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

Result<JsonValue> NavClient::Receive() {
  // One response frame per request, in order (the server releases pipelined
  // responses in arrival order, so Receive N pairs with Send N).
  if (proto_ == WireProto::kBinary && !json_fallback_) {
    std::string body;
    while (true) {
      if (bdecoder_.Next(&body)) {
        Result<JsonValue> decoded = DecodeBinaryResponse(body);
        if (!decoded.ok()) {
          return Status::Internal("malformed binary response from server: " +
                                  decoded.status().message());
        }
        return decoded;
      }
      if (bdecoder_.broken()) {
        return Status::Internal("malformed binary response frame");
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        if (!saw_response_byte_) {
          saw_response_byte_ = true;
          if (chunk[0] == '{') {
            // The server answered in JSON before reading our preamble
            // (accept-path shedding) — it is about to close. Fall back to
            // line framing so the typed error surfaces normally.
            json_fallback_ = true;
            if (!decoder_.Feed(
                    std::string_view(chunk, static_cast<size_t>(n)))) {
              return Status::Internal(
                  "response frame exceeds client frame limit");
            }
            break;  // Continue on the JSON loop below.
          }
        }
        if (!bdecoder_.Feed(std::string_view(chunk,
                                             static_cast<size_t>(n)))) {
          return Status::Internal("malformed binary response frame");
        }
        continue;
      }
      if (n == 0) {
        return Status::IOError("connection closed before response");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("timed out waiting for response");
      }
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
  }
  std::string response;
  while (!decoder_.Next(&response)) {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      saw_response_byte_ = true;
      if (!decoder_.Feed(std::string_view(chunk, static_cast<size_t>(n)))) {
        return Status::Internal("response frame exceeds client frame limit");
      }
      continue;
    }
    if (n == 0) {
      return Status::IOError("connection closed before response");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired with the response still outstanding.
      return Status::DeadlineExceeded("timed out waiting for response");
    }
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
  Result<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) {
    return Status::Internal("malformed response from server: " +
                            parsed.status().message());
  }
  if (!parsed.ValueOrDie().is_object()) {
    return Status::Internal("response is not a JSON object");
  }
  return parsed;
}

Result<JsonValue> NavClient::CallRaw(const Request& request) {
  Status sent = Send(request);
  if (!sent.ok()) return sent;
  return Receive();
}

Result<JsonValue> NavClient::Call(const Request& request) {
  Result<JsonValue> response = CallRaw(request);
  if (!response.ok()) return response;
  const JsonValue& doc = response.ValueOrDie();
  if (!doc.BoolOr("ok", false)) {
    return StatusFromWireError(doc.StringOr("error", "INTERNAL"),
                               doc.StringOr("message", ""));
  }
  return response;
}

Result<NavClient::QueryReply> NavClient::Query(const std::string& query) {
  Request request;
  request.op = RequestOp::kQuery;
  request.query = query;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue& doc = response.ValueOrDie();
  QueryReply reply;
  reply.token = doc.StringOr("token", "");
  Status read = ReadInt<size_t>(doc, "result_size", 0, &reply.result_size);
  if (!read.ok()) return read;
  reply.cached = doc.BoolOr("cached", false);
  if (reply.token.empty()) {
    return Status::Internal("QUERY response carries no token");
  }
  return reply;
}

Result<std::vector<NavNodeId>> NavClient::Expand(const std::string& token,
                                                 NavNodeId node) {
  Request request;
  request.op = RequestOp::kExpand;
  request.token = token;
  request.node = node;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  std::vector<NavNodeId> ids;
  Status read = ReadNodeIds(response.ValueOrDie().Find("revealed"),
                            "EXPAND response", &ids);
  if (!read.ok()) return read;
  return ids;
}

Result<NavClient::BatchExpandReply> NavClient::ExpandMany(
    const std::string& token, const std::vector<NavNodeId>& nodes) {
  Request request;
  request.op = RequestOp::kBatchExpand;
  request.token = token;
  request.nodes = nodes;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue& doc = response.ValueOrDie();
  BatchExpandReply reply;
  Status read = ReadInt<uint64_t>(doc, "expanded", 0, &reply.expanded);
  if (read.ok()) {
    read = ReadNodeIds(doc.Find("revealed"), "BATCH_EXPAND response",
                       &reply.revealed);
  }
  if (!read.ok()) return read;
  const JsonValue* results = doc.Find("results");
  if (results == nullptr || !results->is_array()) {
    return Status::Internal("BATCH_EXPAND response carries no results array");
  }
  reply.outcomes.reserve(results->array_items().size());
  for (const JsonValue& item : results->array_items()) {
    if (!item.is_object()) {
      return Status::Internal("non-object entry in results array");
    }
    BatchExpandReply::Outcome outcome;
    read = ReadInt(item, "node", kInvalidNavNode, &outcome.node);
    if (!read.ok()) return read;
    outcome.ok = item.BoolOr("ok", false);
    if (outcome.ok) {
      const JsonValue* ids = item.Find("revealed");
      if (ids != nullptr) {
        read = ReadNodeIds(ids, "BATCH_EXPAND outcome", &outcome.revealed);
        if (!read.ok()) return read;
      }
    } else {
      outcome.error = item.StringOr("error", "");
      outcome.message = item.StringOr("message", "");
    }
    reply.outcomes.push_back(std::move(outcome));
  }
  return reply;
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
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue& doc = response.ValueOrDie();
  ShowReply reply;
  Status read = ReadInt<size_t>(doc, "total", 0, &reply.total);
  if (!read.ok()) return read;
  const JsonValue* summaries = doc.Find("summaries");
  if (summaries == nullptr || !summaries->is_array()) {
    return Status::Internal("SHOWRESULTS response carries no summaries");
  }
  for (const JsonValue& item : summaries->array_items()) {
    CitationSummary summary;
    read = ReadInt<uint64_t>(item, "pmid", 0, &summary.pmid);
    if (read.ok()) read = ReadInt(item, "year", 0, &summary.year);
    if (!read.ok()) return read;
    summary.title = item.StringOr("title", "");
    reply.summaries.push_back(std::move(summary));
  }
  return reply;
}

Result<bool> NavClient::Backtrack(const std::string& token) {
  Request request;
  request.op = RequestOp::kBacktrack;
  request.token = token;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  return response.ValueOrDie().BoolOr("undone", false);
}

Result<NavClient::FindReply> NavClient::Find(const std::string& token,
                                             ConceptId concept_id) {
  Request request;
  request.op = RequestOp::kFind;
  request.token = token;
  request.concept_id = concept_id;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue& doc = response.ValueOrDie();
  FindReply reply;
  reply.found = doc.BoolOr("found", false);
  reply.visible = doc.BoolOr("visible", false);
  Status read = ReadInt(doc, "node", kInvalidNavNode, &reply.node);
  if (read.ok()) {
    read = ReadInt(doc, "component_root", kInvalidNavNode,
                   &reply.component_root);
  }
  if (read.ok()) read = ReadInt(doc, "distinct", 0, &reply.distinct);
  if (!read.ok()) return read;
  return reply;
}

Result<std::string> NavClient::View(const std::string& token, int depth) {
  Request request;
  request.op = RequestOp::kView;
  request.token = token;
  request.depth = depth;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue* tree = response.ValueOrDie().Find("tree");
  if (tree == nullptr) {
    return Status::Internal("VIEW response carries no tree");
  }
  return WriteJson(*tree);
}

Status NavClient::CloseSession(const std::string& token) {
  Request request;
  request.op = RequestOp::kClose;
  request.token = token;
  Result<JsonValue> response = Call(request);
  return response.ok() ? Status::OK() : response.status();
}

Result<JsonValue> NavClient::Stats() {
  Request request;
  request.op = RequestOp::kStats;
  return Call(request);
}

Result<std::string> NavClient::Metrics() {
  Request request;
  request.op = RequestOp::kMetrics;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue* text = response.ValueOrDie().Find("text");
  if (text == nullptr || !text->is_string()) {
    return Status::Internal("METRICS response carries no text");
  }
  return text->string_value();
}

Result<std::string> NavClient::FetchArtifact(const std::string& key) {
  Request request;
  request.op = RequestOp::kFetchArtifact;
  request.query = key;
  Result<JsonValue> response = Call(request);
  if (!response.ok()) return response.status();
  const JsonValue* artifact = response.ValueOrDie().Find("artifact");
  if (artifact == nullptr || !artifact->is_string()) {
    return Status::Internal("FETCH_ARTIFACT response carries no artifact");
  }
  std::string record;
  if (!Base64Decode(artifact->string_value(), &record)) {
    return Status::Internal("FETCH_ARTIFACT artifact is not valid base64");
  }
  return record;
}

Result<JsonValue> NavClient::Topology() {
  Request request;
  request.op = RequestOp::kTopology;
  return Call(request);
}

}  // namespace bionav
