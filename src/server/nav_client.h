#ifndef BIONAV_SERVER_NAV_CLIENT_H_
#define BIONAV_SERVER_NAV_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "medline/eutils.h"
#include "server/protocol.h"

namespace bionav {

struct NavClientOptions {
  /// TCP connect deadline; expiry surfaces as kDeadlineExceeded. 0 blocks
  /// indefinitely (kernel default timeout).
  int64_t connect_timeout_ms = 5000;
  /// Per-recv deadline (SO_RCVTIMEO) while waiting for a response line;
  /// expiry surfaces as kDeadlineExceeded. 0 waits forever.
  int64_t recv_timeout_ms = 0;
  /// Wire encoding. kBinary sends the "BNV2" preamble right after connect
  /// and speaks length-prefixed v2 frames both ways; the typed wrappers
  /// below are encoding-agnostic (DecodeResponse yields the same document
  /// from either encoding, and ReadResponse the same typed reply). A
  /// pre-negotiation JSON reply (accept-path shedding answers before
  /// reading the preamble) is recognized by its '{' first byte and handled
  /// transparently.
  WireProto proto = WireProto::kJson;
  /// Extra connect attempts after a failed first try, with full-jitter
  /// capped exponential backoff between attempts: each retry sleeps
  /// uniform(0, cap) with the cap doubling from 50ms to 1s, so a fleet of
  /// clients racing one restarting backend spreads out instead of
  /// reconnecting in synchronized waves. Covers ECONNREFUSED and connect
  /// timeouts — a client racing a backend that is still binding its port.
  /// 0 (the default) fails fast.
  int connect_retries = 0;
};

/// Blocking client for the NavServer wire protocol: one TCP connection,
/// strict request/response by default, with a Send/Receive split for
/// pipelining. Used by bionav_cli's remote mode, the loopback tests and
/// the bench_serving load generator.
class NavClient {
 public:
  /// Connects to host:port (numeric address or resolvable name).
  static Result<std::unique_ptr<NavClient>> Connect(
      const std::string& host, int port,
      NavClientOptions options = NavClientOptions());

  NavClient(const NavClient&) = delete;
  NavClient& operator=(const NavClient&) = delete;
  ~NavClient();

  /// Sends one request and returns the parsed response object — including
  /// error responses (ok:false); only transport/parse failures are a
  /// non-OK Result. Most callers want the typed wrappers below, which fold
  /// wire errors into Status via StatusFromWireError.
  Result<JsonValue> CallRaw(const Request& request);

  /// Pipelining half-calls: Send queues a request on the wire without
  /// waiting; Receive blocks for the next response line (responses arrive
  /// in request order — the server guarantees it). Interleave freely with
  /// CallRaw as long as every Send is matched by a Receive first.
  Status Send(const Request& request);
  Result<JsonValue> Receive();

  /// The typed replies of QUERY (token, result_size, and cached: served
  /// from the server's query-artifact cache), BATCH_EXPAND (expanded: cuts
  /// applied; revealed: the combined frontier in apply order; outcomes:
  /// one per requested node, in order), SHOWRESULTS (total, summaries) and
  /// FIND (found, node, visible, component_root, distinct).
  using QueryReply = Response;
  using BatchExpandReply = Response;
  using ShowReply = Response;
  using FindReply = Response;

  Result<QueryReply> Query(const std::string& query);

  /// EXPAND: ids of the navigation nodes the cut revealed.
  Result<std::vector<NavNodeId>> Expand(const std::string& token,
                                        NavNodeId node);

  /// BATCH_EXPAND: several cuts in one round trip. The call succeeds as
  /// long as the batch was processed; per-node failures are reported in
  /// `outcomes` (a bad token still fails the whole call).
  Result<BatchExpandReply> ExpandMany(const std::string& token,
                                      const std::vector<NavNodeId>& nodes);

  Result<ShowReply> ShowResults(const std::string& token, NavNodeId node,
                                uint64_t retstart = 0, uint64_t retmax = 0);

  Result<bool> Backtrack(const std::string& token);

  /// FIND: locate a concept in the session's navigation/active tree — the
  /// primitive behind the oracle navigation (tests, bench_serving).
  Result<FindReply> Find(const std::string& token, ConceptId concept_id);

  /// VIEW: the active-tree visualization as a raw JSON string.
  Result<std::string> View(const std::string& token, int depth = 100);

  Status CloseSession(const std::string& token);

  /// STATS: the server's counters as a parsed JSON object (includes the
  /// full metrics registry under "metrics").
  Result<JsonValue> Stats();

  /// METRICS: the server's Prometheus text exposition.
  Result<std::string> Metrics();

  /// FETCH_ARTIFACT: the serialized (BNA1) artifact bundle for an
  /// already-normalized cache key, base64-decoded. Shard-to-shard traffic;
  /// a server with its cache disabled answers FAILED_PRECONDITION.
  Result<std::string> FetchArtifact(const std::string& key);

  /// TOPOLOGY: the routing tier's shard map as a parsed JSON object
  /// (generation, vnodes, seed, backends). A bare backend answers
  /// FAILED_PRECONDITION — only the router holds a fleet view.
  Result<JsonValue> Topology();

  /// The negotiated wire encoding of this connection.
  WireProto proto() const { return proto_; }

 private:
  NavClient(int fd, WireProto proto) : fd_(fd), proto_(proto) {}

  /// One connect attempt (Connect adds the retry loop around it).
  static Result<std::unique_ptr<NavClient>> ConnectOnce(
      const std::string& host, int port, const NavClientOptions& options);

  /// Sends a request and reads the reply through the typed decode step;
  /// demands ok:true, folding wire errors to Status.
  Result<Response> Call(const Request& request);

  /// Pops the next response frame's payload (a JSON line or a binary
  /// body), reading from the socket as needed.
  Status ReadFrame(std::string* payload);

  int fd_ = -1;
  WireProto proto_ = WireProto::kJson;
  /// First response byte was '{': the server answered in JSON before the
  /// preamble was read (shed path). The connection stays line-framed.
  bool json_fallback_ = false;
  bool saw_response_byte_ = false;
  /// Partial-frame carry-over between reads. Response frames (VIEW trees,
  /// METRICS expositions) dwarf request frames, hence the generous cap.
  LineFrameDecoder decoder_{64u << 20};
  BinaryFrameDecoder bdecoder_{64u << 20};
};

}  // namespace bionav

#endif  // BIONAV_SERVER_NAV_CLIENT_H_
