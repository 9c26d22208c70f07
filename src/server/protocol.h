#ifndef BIONAV_SERVER_PROTOCOL_H_
#define BIONAV_SERVER_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/navigation_tree.h"
#include "hierarchy/concept_hierarchy.h"
#include "medline/eutils.h"
#include "util/status.h"

namespace bionav {

/// The BioNav wire protocol: one request line in, one response line out,
/// both UTF-8 JSON objects terminated by '\n' (the paper's deployment is an
/// HTTP web service; a line-delimited exchange keeps the reproduction
/// dependency-free while preserving the request/response shape). Every
/// message carries the protocol version under "v"; servers reject versions
/// they do not speak with an UNSUPPORTED_VERSION error instead of guessing.
///
/// Request grammar (all requests):
///   {"v": 1, "op": "<OP>", ...op-specific fields...}
/// Ops and their fields:
///   QUERY       {"query": "<keywords>"}            -> token, result_size,
///                                                     cached
///   EXPAND      {"token": t, "node": n}            -> revealed: [ids]
///   BATCH_EXPAND {"token": t, "nodes": [a, b, c]}  -> expanded, revealed
///                                                     (combined), results
///   SHOWRESULTS {"token": t, "node": n,
///                "retstart": s, "retmax": m}       -> total, summaries
///   BACKTRACK   {"token": t}                       -> undone
///   FIND        {"token": t, "concept": c}         -> found, node, visible,
///                                                     component_root, distinct
///   VIEW        {"token": t, "depth": d}           -> tree (visualization)
///   CLOSE       {"token": t}                       -> closed
///   STATS       {}                                 -> counters (whole doc)
///   METRICS     {}                                 -> text (whole doc)
///   FETCH_ARTIFACT {"query": "<normalized key>"}   -> artifact (base64)
///   TOPOLOGY    {}                                 -> generation, vnodes,
///                                                     seed, backends (whole)
/// node, concept, depth and each nodes entry must be integers that fit
/// int32; retstart/retmax (default 0) integers that fit uint64; depth
/// defaults to 100. Members an op does not carry are ignored.
/// Responses: {"v": 1, "ok": true, "op": "<OP>", ...} on success, or
///   {"v": 1, "ok": false, "error": "<CODE>", "message": "..."} on failure.
/// Reply fields follow one schema in both encodings (WireField below).
inline constexpr int kProtocolVersion = 1;

// ---------------------------------------------------------------------------
// Binary protocol v2 (negotiated per connection)
// ---------------------------------------------------------------------------

/// Version byte carried in every binary frame body.
inline constexpr int kBinaryProtocolVersion = 2;

/// Connection preamble that switches a fresh connection to binary framing.
/// A JSON request line always starts with '{', never 'B', so the server
/// decides the connection's protocol on its very first byte; clients that
/// never send the preamble keep speaking v1 JSON unchanged.
inline constexpr char kBinaryPreamble[4] = {'B', 'N', 'V', '2'};

/// Leading magic byte of every binary frame (requests and responses):
///   [magic u8][length u32 LE][body]
/// body = [version u8][op u8][fields...] for requests and
/// [version u8][flags u8 (bit0 = ok)][op u8][fields...] for responses,
/// where each field is [id u8][type u8][value...] with varint-coded
/// integers and length-prefixed strings. The magic is outside the JSON
/// first-byte alphabet, so a binary client can still recognize a
/// pre-negotiation JSON error line (accept-path shedding) by its '{'.
inline constexpr uint8_t kBinaryFrameMagic = 0xB2;

/// Bytes a binary frame spends before the body (magic + length prefix).
inline constexpr size_t kBinaryFrameHeaderBytes = 5;

/// Wire encoding of one connection; negotiated by the first client byte.
enum class WireProto { kJson = 0, kBinary = 1 };
inline constexpr int kNumWireProtos = 2;

/// Lowercase name ("json"/"binary") for flags, bench records and logs.
const char* WireProtoName(WireProto proto);

/// LEB128 varint append/read (unsigned) and zigzag for signed fields.
/// ReadVarint accepts only the shortest encoding, the one AppendVarint
/// writes (binary v2, BNS1 and BNA1 share this rule).
void AppendVarint(std::string* out, uint64_t value);
bool ReadVarint(std::string_view data, size_t* pos, uint64_t* value);
/// Fixed-width little-endian u32 (frame length prefixes, record headers).
void AppendU32LE(std::string* out, uint32_t value);
uint32_t ReadU32LE(const char* p);
constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> (sizeof(int64_t) * 8 - 1));
}
constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---------------------------------------------------------------------------
// Minimal JSON document model + parser (requests are parsed server-side,
// responses client-side; core/json_export handles serialization of the
// heavyweight payloads).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are doubles; an integer literal up to
/// 2^64-1 also keeps its exact value (exact_uint), so a uint64 request
/// field survives the JSON encoding past 2^53.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  /// A number that also keeps its exact integer value (see exact_uint).
  static JsonValue MakeUInt(uint64_t n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(Array a);
  static JsonValue MakeObject(Object o);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const Array& array_items() const { return array_; }
  const Object& object_items() const { return object_; }
  /// Set when the number was parsed from an integer literal (no sign,
  /// fraction or exponent) that fits uint64.
  std::optional<uint64_t> exact_uint() const { return exact_uint_; }

  /// Object member lookup; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member getters with defaults (absent, wrong-typed or, for
  /// IntOr, outside the int64 range -> default; IntOr truncates fractions).
  int64_t IntOr(std::string_view key, int64_t def) const;
  double NumberOr(std::string_view key, double def) const;
  bool BoolOr(std::string_view key, bool def) const;
  std::string StringOr(std::string_view key, std::string_view def) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::optional<uint64_t> exact_uint_;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document. The whole input must be consumed (trailing
/// whitespace allowed); nesting is capped to keep hostile inputs from
/// exhausting the stack.
Result<JsonValue> ParseJson(std::string_view text);

/// Serializes a JsonValue back to compact JSON (integral numbers print
/// without a decimal point, exact_uint ones exactly, so protocol integers
/// round-trip textually).
std::string WriteJson(const JsonValue& value);

// ---------------------------------------------------------------------------
// Frame assembly
// ---------------------------------------------------------------------------

/// Incremental assembly of '\n'-delimited frames from a non-blocking byte
/// stream: the reactor feeds whatever recv() returned (possibly a fraction
/// of a line, possibly several pipelined lines) and pops complete frames.
/// A frame that grows past `max_frame_bytes` without a terminator trips the
/// overflow latch — the caller answers with a typed error and closes
/// instead of buffering without bound (slow-loris defense).
class LineFrameDecoder {
 public:
  static constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

  explicit LineFrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes. Returns false (and latches overflowed()) once the
  /// unterminated tail exceeds the frame limit; further input is dropped.
  bool Feed(std::string_view data);

  /// Pops the next complete frame into `*line` ('\n' consumed, one trailing
  /// '\r' trimmed). False when no complete frame is buffered, or when the
  /// next complete line exceeds the frame limit (that latches
  /// overflowed()).
  bool Next(std::string* line);

  bool overflowed() const { return overflowed_; }
  /// True when a complete frame within the limit is buffered (Next()
  /// would succeed).
  bool has_frame() const;
  /// Bytes of the unconsumed tail (partial frame + undelivered frames).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix already handed out via Next().
  bool overflowed_ = false;
};

/// Incremental assembly of length-prefixed binary frames (protocol v2),
/// the binary counterpart of LineFrameDecoder. A frame whose declared
/// length exceeds `max_frame_bytes` latches overflowed() the moment the
/// prefix arrives (no need to buffer the body — slow-loris defense), and a
/// frame that does not start with kBinaryFrameMagic latches corrupted();
/// either way the stream is unrecoverable and the caller answers a typed
/// error and closes.
class BinaryFrameDecoder {
 public:
  static constexpr size_t kDefaultMaxFrameBytes =
      LineFrameDecoder::kDefaultMaxFrameBytes;

  explicit BinaryFrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes. Returns false (input dropped) once broken().
  bool Feed(std::string_view data);

  /// Pops the next complete frame's body into `*body` (magic and length
  /// prefix consumed). False when no complete frame is buffered.
  bool Next(std::string* body);

  /// Declared frame length exceeded max_frame_bytes.
  bool overflowed() const { return overflowed_; }
  /// A frame did not start with kBinaryFrameMagic.
  bool corrupted() const { return corrupted_; }
  bool broken() const { return overflowed_ || corrupted_; }
  /// True when a complete frame is buffered (Next() would succeed).
  bool has_frame() const;
  /// Bytes of the unconsumed tail (partial frame + undelivered frames).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  /// Validates the head frame's magic/length; latches broken() states.
  void ScanHead();

  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  bool overflowed_ = false;
  bool corrupted_ = false;
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class WireError;  // Defined with the response machinery below.

enum class RequestOp {
  kQuery,
  kExpand,
  kShowResults,
  kBacktrack,
  kFind,
  kView,
  kClose,
  kStats,
  kMetrics,
  // Appended so existing op bytes keep their binary encoding.
  kBatchExpand,
  /// Cross-shard artifact transfer: "query" carries the normalized cache
  /// key; the reply's "artifact" field is the base64 serialized bundle.
  /// Token-free — shards call each other, not sessions.
  kFetchArtifact,
  /// Routing-tier shard map for client-side routing; answered by the
  /// router (a bare server replies FAILED_PRECONDITION). Token-free.
  kTopology,
};

/// Number of ops; RequestOp values are dense from 0.
inline constexpr int kNumRequestOps =
    static_cast<int>(RequestOp::kTopology) + 1;

/// Wire name of an op ("QUERY", ...).
const char* RequestOpName(RequestOp op);

/// Upper bound on the nodes of one BATCH_EXPAND — bounds per-request work
/// the same way max_frame_bytes bounds per-request bytes. One interactive
/// round trip never needs more cuts than this.
inline constexpr size_t kMaxBatchExpandNodes = 64;

/// One parsed request; fields beyond (version, op) are op-specific.
struct Request {
  int version = kProtocolVersion;
  RequestOp op = RequestOp::kStats;
  std::string token;                       // all session-scoped ops
  std::string query;                       // QUERY
  NavNodeId node = kInvalidNavNode;        // EXPAND / SHOWRESULTS
  std::vector<NavNodeId> nodes;            // BATCH_EXPAND
  ConceptId concept_id = kInvalidConcept;  // FIND
  uint64_t retstart = 0;                   // SHOWRESULTS
  uint64_t retmax = 0;                     // SHOWRESULTS (0 = all)
  int depth = 100;                         // VIEW
};

/// Serializes a request as one line (no trailing newline).
std::string SerializeRequest(const Request& request);

/// A decoded request whose string fields view the frame body the reactor
/// popped from its decoder (the frame itself is the arena), so the binary
/// parse allocates nothing per field. The JSON path decodes into an owned
/// Request first (escape processing needs owned storage). Views are only
/// valid while the backing buffer is alive — the server handles a request
/// before popping the next frame.
struct RequestView {
  int version = kProtocolVersion;
  RequestOp op = RequestOp::kStats;
  std::string_view token;
  std::string_view query;
  NavNodeId node = kInvalidNavNode;
  // BATCH_EXPAND node list. Owned (decoded from varints either way), so a
  // view is no more expensive than the owned Request here.
  std::vector<NavNodeId> nodes;
  ConceptId concept_id = kInvalidConcept;
  uint64_t retstart = 0;
  uint64_t retmax = 0;
  int depth = 100;
};

/// A view over an owned Request; valid while `request` is alive.
RequestView MakeRequestView(const Request& request);

/// An owned copy of a decoded request, for handling it after the frame its
/// string fields view is gone.
Request ToOwnedRequest(RequestView view);

/// One complete request frame in either encoding: a JSON line with its
/// '\n', or a binary v2 frame.
std::string EncodeRequestFrame(WireProto proto, const Request& request);

/// Serializes a request as a complete binary v2 frame (magic + length
/// prefix + body).
std::string SerializeRequestBinary(const Request& request);

/// Parses one binary frame body (as popped by BinaryFrameDecoder::Next)
/// with the same per-op field validation as ParseRequest. Returns kNone
/// and fills `*out` (string fields viewing `body`) on success.
WireError ParseRequestBinary(std::string_view body, RequestView* out,
                             std::string* error_message);

// ---------------------------------------------------------------------------
// Responses and typed errors
// ---------------------------------------------------------------------------

/// Typed wire errors. kNone means success (only used as a parse outcome,
/// never serialized).
enum class WireError {
  kNone = 0,
  kBadRequest,          // unparsable line / missing or ill-typed fields
  kUnsupportedVersion,  // "v" differs from kProtocolVersion
  kUnknownSession,      // token not live (never created, closed, evicted)
  kRetryLater,          // admission control shed this connection
  kShuttingDown,        // server is draining
  kInvalidArgument,     // op-level: bad node id etc.
  kNotFound,            // op-level lookup miss
  kFailedPrecondition,  // op-level: e.g. EXPAND on a hidden node
  kInternal,
};

/// Wire name of an error code ("RETRY_LATER", ...).
const char* WireErrorName(WireError error);

/// Parses one request line. Returns kNone and fills `*out` on success;
/// otherwise returns the typed error and a human-readable message.
WireError ParseRequest(std::string_view line, Request* out,
                       std::string* error_message);

/// Decodes one request payload (a JSON line or a binary frame body) into
/// `*out`. Binary views point into `payload`; JSON views point into
/// `*storage`, which owns the decoded strings. Both encodings accept the
/// same logical requests and reject the rest with the same error codes.
WireError DecodeRequest(WireProto proto, std::string_view payload,
                        Request* storage, RequestView* out,
                        std::string* error_message);

/// Maps an op-level library Status onto the wire (OK statuses are a
/// programming error; use WireResponse for successes).
WireError WireErrorFromStatus(const Status& status);

/// Client-side mapping of a wire error back to a Status. RETRY_LATER and
/// SHUTTING_DOWN map to FailedPrecondition with the code name prefixed to
/// the message so callers can distinguish shed load from logic errors.
Status StatusFromWireError(std::string_view error_name,
                           std::string_view message);

// ---------------------------------------------------------------------------
// Responses: one schema, two encodings
// ---------------------------------------------------------------------------

/// Response field registry. Binary frames tag each field with its id, JSON
/// replies name it by its key; protocol.cc's field table gives every id its
/// key and value type, and its per-op table lists the fields each reply
/// carries (see the grammar above). Both encoders and the typed decode step
/// follow those tables. Whole-document replies travel in binary as the sole
/// kWhole field of a frame with op byte 0xFE.
enum class WireField : uint8_t {
  kToken = 1,
  kResultSize = 2,
  kCached = 3,
  kRevealed = 4,
  kTotal = 5,
  kSummaries = 6,
  kUndone = 7,
  kFound = 8,
  kNode = 9,
  kVisible = 10,
  kComponentRoot = 11,
  kDistinct = 12,
  kTree = 13,
  kClosed = 14,
  kError = 15,
  kMessage = 16,
  kWhole = 17,
  kResults = 18,   // BATCH_EXPAND per-node outcomes (JSON array)
  kExpanded = 19,  // BATCH_EXPAND: number of cuts applied
  kArtifact = 20,  // FETCH_ARTIFACT: base64 serialized bundle
};

/// One BATCH_EXPAND per-node outcome.
struct BatchOutcome {
  NavNodeId node = kInvalidNavNode;
  bool ok = false;
  std::vector<NavNodeId> revealed;  // when ok
  std::string error;                // wire error code when !ok
  std::string message;              // when !ok
};

/// One backend as the TOPOLOGY op describes it.
struct TopologyBackend {
  std::string id;
  std::string host;
  int port = 0;
  /// Router-side health state name ("healthy", "unhealthy", "halfopen").
  std::string state;
  bool draining = false;
};

/// The routing tier's shard map, as served by TOPOLOGY: enough for a
/// client to rebuild the placement ring locally (same seed + vnodes +
/// backend ids => identical ownership, no coordination needed) and dial
/// backends directly. `generation` bumps whenever membership or health
/// changes; a client holding a stale generation falls back to the proxy
/// and refreshes.
struct FleetTopology {
  uint64_t generation = 0;
  int vnodes = 128;
  uint64_t seed = 0;
  std::vector<TopologyBackend> backends;
};

/// One decoded reply, the counterpart of Request. Members beyond (op, ok)
/// are those of `op`'s reply, or (error, message) when !ok.
struct Response {
  RequestOp op = RequestOp::kStats;
  bool ok = false;
  std::string error;    // wire error code name ("UNKNOWN_SESSION", ...)
  std::string message;
  std::string token;                       // QUERY
  uint64_t result_size = 0;                // QUERY
  bool cached = false;                     // QUERY
  std::vector<NavNodeId> revealed;         // EXPAND, BATCH_EXPAND
  uint64_t expanded = 0;                   // BATCH_EXPAND
  std::vector<BatchOutcome> outcomes;      // BATCH_EXPAND "results"
  uint64_t total = 0;                      // SHOWRESULTS
  std::vector<CitationSummary> summaries;  // SHOWRESULTS
  bool undone = false;                     // BACKTRACK
  bool found = false;                      // FIND
  NavNodeId node = kInvalidNavNode;        // FIND
  bool visible = false;                    // FIND
  NavNodeId component_root = kInvalidNavNode;  // FIND
  int32_t distinct = 0;                    // FIND
  JsonValue tree;                          // VIEW
  bool closed = false;                     // CLOSE
  std::string artifact;                    // FETCH_ARTIFACT (base64)
  JsonValue document;  // STATS, METRICS, TOPOLOGY: the whole reply
  std::string text;    // METRICS: the Prometheus exposition
  FleetTopology topology;                  // TOPOLOGY
};

/// One outgoing response: an owned per-request head plus an optional
/// shared pre-rendered suffix (a response template attached to cached
/// query artifacts). The reactor writes {head, body} with one writev, so
/// serving a template never copies or re-renders the shared bytes.
struct WireFrame {
  std::string head;
  std::shared_ptr<const std::string> body;
  size_t size() const { return head.size() + (body ? body->size() : 0); }
};

/// Decodes one reply payload (a JSON line or a binary frame body) into its
/// document: the JSON object, or DecodeBinaryResponse's equal-shaped one.
/// Internal on a malformed payload.
Result<JsonValue> DecodeResponse(WireProto proto, std::string_view payload);

/// The typed decode step: reads the reply to `op` from its document. Every
/// integer, nested ones too, must be integral and fit its member's C++ type
/// (the request decoders' rule); a member of another JSON type, or an
/// empty string, counts as absent; a reply missing a required field or
/// naming another op is Internal. Error replies read (error, message)
/// whatever `op` is.
Result<Response> ReadResponse(RequestOp op, const JsonValue& doc);

/// The reply frame of a typed Response; whole documents go verbatim.
WireFrame EncodeResponse(WireProto proto, const Response& response);

/// Pre-rendered JSON text for a JSON-typed field or member.
struct RawJson {
  std::string_view text;
};

/// Assembles one success reply in either encoding. A field's value type
/// picks its encoding and must be the field's type in the schema, for a
/// field of the op's reply (both checked). Whole-document ops take keyed
/// JSON members instead; Finish wraps them as kWhole for binary.
class WireResponse {
 public:
  WireResponse(WireProto proto, RequestOp op);

  WireResponse& Add(WireField field, uint64_t value);
  WireResponse& Add(WireField field, int32_t value);
  /// bool only: a pointer or an integer must not turn into a flag.
  template <typename B, std::enable_if_t<std::is_same_v<B, bool>, int> = 0>
  WireResponse& Add(WireField field, B value) {
    return AddBool(field, value);
  }
  WireResponse& Add(WireField field, std::string_view value);
  WireResponse& Add(WireField field, const std::vector<NavNodeId>& ids);
  WireResponse& Add(WireField field, RawJson json);
  WireResponse& Add(WireField field, const JsonValue& json);
  WireResponse& Add(WireField field,
                    const std::vector<CitationSummary>& summaries);
  WireResponse& Add(WireField field, const std::vector<BatchOutcome>& results);

  /// Members of a whole-document reply.
  WireResponse& Add(std::string_view key, int64_t value);
  WireResponse& Add(std::string_view key, std::string_view value);
  WireResponse& Add(std::string_view key, RawJson json);

  /// Self-contained frame (JSON line incl. '\n', or length-prefixed
  /// binary). The builder is spent.
  WireFrame Finish();
  /// Renders the fields added so far as a shareable reply suffix, the
  /// template unit cached on QueryArtifacts: for JSON it closes the object
  /// and carries the trailing newline; for binary it is raw field bytes.
  std::string FinishPayload();
  /// Frame whose suffix is the shared pre-rendered `payload` (produced by
  /// FinishPayload for the same proto and op).
  WireFrame FinishWithPayload(std::shared_ptr<const std::string> payload);

  /// Typed error response as a frame in the given encoding.
  static WireFrame Error(WireProto proto, WireError error,
                         std::string_view message);

 private:
  WireResponse& AddBool(WireField field, bool value);
  /// Appends `field` after checking it against the op's reply and `type`.
  template <typename T>
  WireResponse& Put(WireField field, uint8_t type, const T& value);

  WireProto proto_;
  RequestOp op_;
  std::string fields_;
};

/// The METRICS reply: the Prometheus exposition as one JSON string member
/// (JsonEscape keeps the line protocol intact; clients unescape on print).
WireFrame MetricsReply(WireProto proto, std::string_view exposition);

/// Decodes one binary response frame body into the document shape a JSON
/// reply parses to. Unknown ids and known ids of another type are skipped;
/// unsigned varints stay exact. kWhole is accepted only as the sole field
/// of a 0xFE frame, an object whose "ok" matches the flag bit; that
/// document is the response. Non-OK on malformed frames.
Result<JsonValue> DecodeBinaryResponse(std::string_view body);

}  // namespace bionav

#endif  // BIONAV_SERVER_PROTOCOL_H_
