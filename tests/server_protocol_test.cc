// Wire-protocol unit tests: JSON document round-trips, hostile/malformed
// inputs, request parsing/serialization for every op, and the typed error
// vocabulary.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null").ValueOrDie().is_null());
  EXPECT_TRUE(ParseJson("true").ValueOrDie().bool_value());
  EXPECT_FALSE(ParseJson("false").ValueOrDie().bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("42").ValueOrDie().number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.5e2").ValueOrDie().number_value(), -350.0);
  EXPECT_EQ(ParseJson("\"hi\"").ValueOrDie().string_value(), "hi");
}

TEST(JsonParse, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.ValueOrDie().string_value(), "a\"b\\c/d\n\t\r\b\f");
}

TEST(JsonParse, UnicodeEscapeToUtf8) {
  auto v = ParseJson(R"("\u00e9\u4e2d")");  // é, 中
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.ValueOrDie().string_value(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonParse, ArraysAndObjects) {
  auto v = ParseJson(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.ok());
  const JsonValue& root = v.ValueOrDie();
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_items()[1].number_value(), 2.0);
  const JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->BoolOr("c", false));
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParse, TypedGettersWithDefaults) {
  auto v = ParseJson(R"({"n": 7, "s": "x", "b": true})").ValueOrDie();
  EXPECT_EQ(v.IntOr("n", -1), 7);
  EXPECT_EQ(v.IntOr("s", -1), -1);  // wrong type -> default
  EXPECT_EQ(v.StringOr("s", "d"), "x");
  EXPECT_EQ(v.StringOr("n", "d"), "d");
  EXPECT_TRUE(v.BoolOr("b", false));
  EXPECT_EQ(v.IntOr("missing", 13), 13);
}

TEST(JsonParse, MalformedInputsRejected) {
  const char* bad[] = {
      "",          "{",        "}",          "[1,",      "{\"a\":}",
      "tru",       "01",       "1.",         "+1",       "nan",
      "\"unterminated", "{\"a\" 1}", "[1 2]", "{'a': 1}", "\"\\x41\"",
      "\"\\u12\"", "1 2",      "{} trailing",
  };
  for (const char* input : bad) {
    EXPECT_FALSE(ParseJson(input).ok()) << "accepted: " << input;
  }
}

TEST(JsonParse, DepthCapStopsHostileNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonWrite, RoundTripsIntegersTextually) {
  auto v = ParseJson(R"({"n": 123456789, "f": 1.5, "s": "a\"b"})");
  ASSERT_TRUE(v.ok());
  std::string out = WriteJson(v.ValueOrDie());
  EXPECT_NE(out.find("123456789"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  auto again = ParseJson(out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().IntOr("n", -1), 123456789);
  EXPECT_EQ(again.ValueOrDie().StringOr("s", ""), "a\"b");
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

TEST(ProtocolRequest, RoundTripEveryOp) {
  Request requests[10];
  requests[0].op = RequestOp::kQuery;
  requests[0].query = "prothymosin alpha";
  requests[1].op = RequestOp::kExpand;
  requests[1].token = "s42";
  requests[1].node = 17;
  requests[2].op = RequestOp::kShowResults;
  requests[2].token = "s42";
  requests[2].node = 3;
  requests[2].retstart = 20;
  requests[2].retmax = 10;
  requests[3].op = RequestOp::kBacktrack;
  requests[3].token = "s42";
  requests[4].op = RequestOp::kFind;
  requests[4].token = "s42";
  requests[4].concept_id = 99;
  requests[5].op = RequestOp::kView;
  requests[5].token = "s42";
  requests[5].depth = 4;
  requests[6].op = RequestOp::kClose;
  requests[6].token = "s42";
  requests[7].op = RequestOp::kStats;
  // Fleet ops: FETCH_ARTIFACT carries a query key (no token), TOPOLOGY
  // carries nothing at all.
  requests[8].op = RequestOp::kFetchArtifact;
  requests[8].query = "breast cancer";
  requests[9].op = RequestOp::kTopology;

  for (const Request& request : requests) {
    std::string line = SerializeRequest(request);
    Request parsed;
    std::string message;
    ASSERT_EQ(ParseRequest(line, &parsed, &message), WireError::kNone)
        << line << ": " << message;
    EXPECT_EQ(parsed.version, kProtocolVersion);
    EXPECT_EQ(parsed.op, request.op) << line;
    EXPECT_EQ(parsed.token, request.token);
    EXPECT_EQ(parsed.query, request.query);
    EXPECT_EQ(parsed.node, request.node);
    EXPECT_EQ(parsed.concept_id, request.concept_id);
    EXPECT_EQ(parsed.retstart, request.retstart);
    EXPECT_EQ(parsed.retmax, request.retmax);
    EXPECT_EQ(parsed.depth, request.depth);
  }
}

TEST(ProtocolRequest, RejectsWrongVersion) {
  Request parsed;
  std::string message;
  EXPECT_EQ(ParseRequest(R"({"v": 2, "op": "STATS"})", &parsed, &message),
            WireError::kUnsupportedVersion);
  EXPECT_EQ(ParseRequest(R"({"op": "STATS"})", &parsed, &message),
            WireError::kUnsupportedVersion);
}

TEST(ProtocolRequest, RejectsMalformedRequests) {
  struct Case {
    const char* line;
    WireError expected;
  };
  const Case cases[] = {
      {"not json", WireError::kBadRequest},
      {"[1,2]", WireError::kBadRequest},  // not an object
      {R"({"v": 1})", WireError::kBadRequest},  // missing op
      {R"({"v": 1, "op": "NOPE"})", WireError::kBadRequest},
      {R"({"v": 1, "op": "QUERY"})", WireError::kBadRequest},  // no query
      {R"({"v": 1, "op": "EXPAND", "token": "s1"})",
       WireError::kBadRequest},  // no node
      {R"({"v": 1, "op": "EXPAND", "node": 1})",
       WireError::kBadRequest},  // no token
      {R"({"v": 1, "op": "FIND", "token": "s1"})",
       WireError::kBadRequest},  // no concept
  };
  for (const Case& c : cases) {
    Request parsed;
    std::string message;
    EXPECT_EQ(ParseRequest(c.line, &parsed, &message), c.expected) << c.line;
    EXPECT_FALSE(message.empty()) << c.line;
  }
}

// ---------------------------------------------------------------------------
// Responses and errors
// ---------------------------------------------------------------------------

TEST(ProtocolResponse, BuilderEmitsVersionedSuccessLine) {
  std::string line = ResponseBuilder(RequestOp::kExpand)
                         .Add("count", 3)
                         .Add("flag", true)
                         .Add("name", std::string_view("x"))
                         .AddRaw("list", "[1,2]")
                         .Finish();
  auto v = ParseJson(line);
  ASSERT_TRUE(v.ok()) << line;
  const JsonValue& r = v.ValueOrDie();
  EXPECT_EQ(r.IntOr("v", -1), kProtocolVersion);
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.StringOr("op", ""), "EXPAND");
  EXPECT_EQ(r.IntOr("count", -1), 3);
  EXPECT_TRUE(r.BoolOr("flag", false));
  ASSERT_NE(r.Find("list"), nullptr);
  EXPECT_EQ(r.Find("list")->array_items().size(), 2u);
}

TEST(ProtocolResponse, ErrorReplyCarriesCodeAndMessage) {
  std::string line = ErrorReply(WireError::kUnknownSession, "no such token");
  auto v = ParseJson(line);
  ASSERT_TRUE(v.ok()) << line;
  const JsonValue& r = v.ValueOrDie();
  EXPECT_EQ(r.IntOr("v", -1), kProtocolVersion);
  EXPECT_FALSE(r.BoolOr("ok", true));
  EXPECT_EQ(r.StringOr("error", ""), "UNKNOWN_SESSION");
  EXPECT_EQ(r.StringOr("message", ""), "no such token");
}

TEST(ProtocolResponse, StatusMapsToWireAndBack) {
  EXPECT_EQ(WireErrorFromStatus(Status::NotFound("x")), WireError::kNotFound);
  EXPECT_EQ(WireErrorFromStatus(Status::InvalidArgument("x")),
            WireError::kInvalidArgument);
  EXPECT_EQ(WireErrorFromStatus(Status::FailedPrecondition("x")),
            WireError::kFailedPrecondition);

  Status s = StatusFromWireError("NOT_FOUND", "gone");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "gone");

  // Shed load keeps its code name in the message so callers can tell it
  // apart from logic errors.
  Status shed = StatusFromWireError("RETRY_LATER", "at capacity");
  EXPECT_EQ(shed.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(shed.message().find("RETRY_LATER"), std::string::npos);
}

TEST(ProtocolResponse, UnknownWireErrorBecomesInternal) {
  Status s = StatusFromWireError("SOME_FUTURE_CODE", "m");
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// Binary protocol (v2)
// ---------------------------------------------------------------------------

TEST(ProtocolBinary, VarintRoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             ~0ull};
  for (uint64_t value : values) {
    std::string buffer;
    AppendVarint(&buffer, value);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(ReadVarint(buffer, &pos, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(pos, buffer.size()) << "trailing bytes for " << value;
  }
  // A truncated varint must fail, not read past the buffer.
  std::string unterminated(10, '\x80');
  size_t pos = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(ReadVarint(unterminated, &pos, &decoded));
}

TEST(ProtocolBinary, ZigzagRoundTripsSignedBoundaries) {
  const int64_t values[] = {0, -1, 1, -2, 63, -64, INT64_MAX, INT64_MIN};
  for (int64_t value : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(value)), value);
  }
  EXPECT_EQ(ZigzagEncode(-1), 1u);  // Small magnitudes stay small.
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

/// The oracle request set: one of every op with every op-specific field
/// exercised (shared by the JSON and binary round-trip assertions).
std::vector<Request> OracleRequests() {
  std::vector<Request> requests(11);
  requests[0].op = RequestOp::kQuery;
  requests[0].query = "prothymosin alpha \"quoted\" \xc3\xa9";
  requests[1].op = RequestOp::kExpand;
  requests[1].token = "s42";
  requests[1].node = 17;
  requests[2].op = RequestOp::kShowResults;
  requests[2].token = "s42";
  requests[2].node = 3;
  requests[2].retstart = 20;
  requests[2].retmax = 10;
  requests[3].op = RequestOp::kBacktrack;
  requests[3].token = "s42";
  requests[4].op = RequestOp::kFind;
  requests[4].token = "s42";
  requests[4].concept_id = 99;
  requests[5].op = RequestOp::kView;
  requests[5].token = "s42";
  requests[5].depth = 4;
  requests[6].op = RequestOp::kClose;
  requests[6].token = "s42";
  requests[7].op = RequestOp::kStats;
  requests[8].op = RequestOp::kMetrics;
  requests[9].op = RequestOp::kFetchArtifact;
  requests[9].query = "fleet key \xc3\xa9";
  requests[10].op = RequestOp::kTopology;
  return requests;
}

TEST(ProtocolBinary, RequestRoundTripEveryOpMatchesJson) {
  for (const Request& request : OracleRequests()) {
    // Binary leg: frame -> decoder -> arena-backed view.
    std::string frame = SerializeRequestBinary(request);
    BinaryFrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(frame));
    std::string body;
    ASSERT_TRUE(decoder.Next(&body)) << RequestOpName(request.op);
    EXPECT_FALSE(decoder.has_frame()) << "frame not fully consumed";
    RequestView binary_view;
    std::string message;
    ASSERT_EQ(ParseRequestBinary(body, &binary_view, &message),
              WireError::kNone)
        << RequestOpName(request.op) << ": " << message;
    EXPECT_EQ(binary_view.version, kBinaryProtocolVersion);

    // JSON leg through the shared view adapter.
    Request json_parsed;
    ASSERT_EQ(ParseRequest(SerializeRequest(request), &json_parsed, &message),
              WireError::kNone);
    RequestView json_view = MakeRequestView(json_parsed);

    EXPECT_EQ(binary_view.op, json_view.op);
    EXPECT_EQ(binary_view.token, json_view.token);
    EXPECT_EQ(binary_view.query, json_view.query);
    EXPECT_EQ(binary_view.node, json_view.node);
    EXPECT_EQ(binary_view.concept_id, json_view.concept_id);
    EXPECT_EQ(binary_view.retstart, json_view.retstart);
    EXPECT_EQ(binary_view.retmax, json_view.retmax);
    EXPECT_EQ(binary_view.depth, json_view.depth);
  }
}

TEST(ProtocolBinary, RequestFrameHasMagicAndExactLengthPrefix) {
  Request request;
  request.op = RequestOp::kQuery;
  request.query = "x";
  std::string frame = SerializeRequestBinary(request);
  ASSERT_GT(frame.size(), kBinaryFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(frame[0]), kBinaryFrameMagic);
  uint32_t declared = 0;
  std::memcpy(&declared, frame.data() + 1, sizeof(declared));
  EXPECT_EQ(declared, frame.size() - kBinaryFrameHeaderBytes);
}

TEST(ProtocolBinary, DecoderAssemblesFramesFedByteByByte) {
  Request request;
  request.op = RequestOp::kFind;
  request.token = "s1";
  request.concept_id = 7;
  std::string frame = SerializeRequestBinary(request);
  BinaryFrameDecoder decoder;
  for (size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(decoder.has_frame()) << "frame complete early at byte " << i;
    ASSERT_TRUE(decoder.Feed(std::string_view(frame).substr(i, 1)));
  }
  std::string body;
  ASSERT_TRUE(decoder.Next(&body));
  RequestView view;
  std::string message;
  EXPECT_EQ(ParseRequestBinary(body, &view, &message), WireError::kNone);
  EXPECT_EQ(view.concept_id, 7);
}

TEST(ProtocolBinary, DecoderLatchesCorruptedOnBadMagic) {
  BinaryFrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed("\x7bnot a binary frame"));
  EXPECT_TRUE(decoder.corrupted());
  EXPECT_TRUE(decoder.broken());
  EXPECT_FALSE(decoder.overflowed());
  // Further input is dropped once broken.
  EXPECT_FALSE(decoder.Feed(SerializeRequestBinary(Request())));
  std::string body;
  EXPECT_FALSE(decoder.Next(&body));
}

TEST(ProtocolBinary, DecoderLatchesOverflowOnDeclaredLengthPastCap) {
  BinaryFrameDecoder decoder(/*max_frame_bytes=*/64);
  // Declared length 1 MiB: the overflow latches as soon as the prefix
  // arrives, without buffering any body bytes.
  std::string head;
  head.push_back(static_cast<char>(kBinaryFrameMagic));
  uint32_t huge = 1u << 20;
  head.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  EXPECT_FALSE(decoder.Feed(head));
  EXPECT_TRUE(decoder.overflowed());
  EXPECT_FALSE(decoder.corrupted());
}

TEST(ProtocolBinary, RejectsMalformedRequestBodies) {
  // Start from a valid EXPAND body and mutate.
  Request request;
  request.op = RequestOp::kExpand;
  request.token = "s1";
  request.node = 2;
  std::string frame = SerializeRequestBinary(request);
  std::string valid = frame.substr(kBinaryFrameHeaderBytes);

  RequestView view;
  std::string message;
  // Garbage version byte.
  std::string bad_version = valid;
  bad_version[0] = '\x09';
  EXPECT_EQ(ParseRequestBinary(bad_version, &view, &message),
            WireError::kUnsupportedVersion);
  EXPECT_FALSE(message.empty());
  // Unknown op byte.
  std::string bad_op = valid;
  bad_op[1] = '\x6e';
  EXPECT_EQ(ParseRequestBinary(bad_op, &view, &message),
            WireError::kBadRequest);
  // Truncations at every prefix length must fail cleanly, never read
  // out of bounds (the fuzz-shaped property behind the arena decode).
  for (size_t len = 0; len + 1 < valid.size(); ++len) {
    EXPECT_NE(ParseRequestBinary(valid.substr(0, len), &view, &message),
              WireError::kNone)
        << "accepted truncated body of " << len << " bytes";
  }
  // Missing required fields: an EXPAND body with no fields at all.
  EXPECT_EQ(ParseRequestBinary(valid.substr(0, 2), &view, &message),
            WireError::kBadRequest);
}

/// Decodes a WireFrame (head + optional shared body) through the real
/// client path of its encoding into the response document.
JsonValue DecodeFrameToDoc(const WireFrame& frame, WireProto proto) {
  std::string bytes = frame.head;
  if (frame.body) bytes += *frame.body;
  if (proto == WireProto::kJson) {
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.back(), '\n') << "JSON frame missing newline";
    Result<JsonValue> parsed =
        ParseJson(std::string_view(bytes).substr(0, bytes.size() - 1));
    EXPECT_TRUE(parsed.ok()) << bytes;
    return parsed.ok() ? parsed.ValueOrDie() : JsonValue();
  }
  EXPECT_GE(bytes.size(), kBinaryFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), kBinaryFrameMagic);
  uint32_t declared = 0;
  std::memcpy(&declared, bytes.data() + 1, sizeof(declared));
  EXPECT_EQ(declared, bytes.size() - kBinaryFrameHeaderBytes)
      << "length prefix does not cover head+body";
  Result<JsonValue> decoded = DecodeBinaryResponse(
      std::string_view(bytes).substr(kBinaryFrameHeaderBytes));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? decoded.ValueOrDie() : JsonValue();
}

/// The cross-encoding oracle: both documents must agree on every member
/// except the version stamp (JSON frames say v=1, binary v=2).
void ExpectSameDocument(const JsonValue& json_doc, const JsonValue& bin_doc) {
  ASSERT_TRUE(json_doc.is_object());
  ASSERT_TRUE(bin_doc.is_object());
  EXPECT_EQ(json_doc.object_items().size(), bin_doc.object_items().size());
  for (const auto& [key, value] : json_doc.object_items()) {
    if (key == "v") continue;
    const JsonValue* other = bin_doc.Find(key);
    ASSERT_NE(other, nullptr) << "binary document missing \"" << key << '"';
    EXPECT_EQ(WriteJson(value), WriteJson(*other)) << "member \"" << key
                                                   << "\" differs";
  }
  EXPECT_EQ(json_doc.IntOr("v", -1), kProtocolVersion);
  EXPECT_EQ(bin_doc.IntOr("v", -1), kBinaryProtocolVersion);
}

TEST(ProtocolBinary, ResponseRoundTripEveryShapeMatchesJson) {
  // One builder per response shape the server emits, parameterized on the
  // encoding — the property is that the decoded documents are identical.
  using Build = WireFrame (*)(WireProto);
  const Build shapes[] = {
      +[](WireProto proto) {  // QUERY
        return WireResponse(proto, RequestOp::kQuery)
            .AddString(WireField::kToken, "s42")
            .AddUInt(WireField::kResultSize, 120)
            .AddBool(WireField::kCached, true)
            .Finish();
      },
      +[](WireProto proto) {  // EXPAND
        return WireResponse(proto, RequestOp::kExpand)
            .AddIntList(WireField::kRevealed, {1, 5, 9})
            .Finish();
      },
      +[](WireProto proto) {  // EXPAND, nothing revealed
        return WireResponse(proto, RequestOp::kExpand)
            .AddIntList(WireField::kRevealed, {})
            .Finish();
      },
      +[](WireProto proto) {  // SHOWRESULTS
        return WireResponse(proto, RequestOp::kShowResults)
            .AddUInt(WireField::kTotal, 7)
            .AddRawJson(WireField::kSummaries,
                        R"([{"uid":11,"title":"a \"b\""}])")
            .Finish();
      },
      +[](WireProto proto) {  // BACKTRACK
        return WireResponse(proto, RequestOp::kBacktrack)
            .AddBool(WireField::kUndone, false)
            .Finish();
      },
      +[](WireProto proto) {  // FIND
        return WireResponse(proto, RequestOp::kFind)
            .AddBool(WireField::kFound, true)
            .AddInt(WireField::kNode, 3)
            .AddBool(WireField::kVisible, false)
            .AddInt(WireField::kComponentRoot, 2)
            .AddInt(WireField::kDistinct, 4)
            .Finish();
      },
      +[](WireProto proto) {  // VIEW
        return WireResponse(proto, RequestOp::kView)
            .AddRawJson(WireField::kTree,
                        R"({"label":"root","children":[{"label":"c"}]})")
            .Finish();
      },
      +[](WireProto proto) {  // CLOSE
        return WireResponse(proto, RequestOp::kClose)
            .AddBool(WireField::kClosed, true)
            .Finish();
      },
      +[](WireProto proto) {  // FETCH_ARTIFACT (base64 bundle payload)
        return WireResponse(proto, RequestOp::kFetchArtifact)
            .AddString(WireField::kArtifact, "Qk5BMWZha2U=")
            .Finish();
      },
  };
  for (size_t i = 0; i < sizeof(shapes) / sizeof(shapes[0]); ++i) {
    JsonValue json_doc = DecodeFrameToDoc(shapes[i](WireProto::kJson),
                                          WireProto::kJson);
    JsonValue bin_doc = DecodeFrameToDoc(shapes[i](WireProto::kBinary),
                                         WireProto::kBinary);
    EXPECT_TRUE(json_doc.BoolOr("ok", false)) << "shape " << i;
    ExpectSameDocument(json_doc, bin_doc);
  }
}

TEST(ProtocolBinary, ErrorFramesMatchAcrossEncodings) {
  JsonValue json_doc = DecodeFrameToDoc(
      WireResponse::Error(WireProto::kJson, WireError::kUnknownSession,
                          "no such token"),
      WireProto::kJson);
  JsonValue bin_doc = DecodeFrameToDoc(
      WireResponse::Error(WireProto::kBinary, WireError::kUnknownSession,
                          "no such token"),
      WireProto::kBinary);
  EXPECT_FALSE(json_doc.BoolOr("ok", true));
  EXPECT_EQ(json_doc.StringOr("error", ""), "UNKNOWN_SESSION");
  ExpectSameDocument(json_doc, bin_doc);
}

TEST(ProtocolBinary, WholeJsonPassthroughUnwrapsToIdenticalDocument) {
  // STATS/METRICS travel as one pre-rendered JSON line; the binary
  // envelope must unwrap back to exactly that document.
  std::string line = ResponseBuilder(RequestOp::kStats)
                         .Add("requests", 7)
                         .AddRaw("metrics", R"({"counters":{"a":1}})")
                         .Finish();
  JsonValue json_doc =
      DecodeFrameToDoc(WrapWholeJson(WireProto::kJson, line), WireProto::kJson);
  JsonValue bin_doc = DecodeFrameToDoc(WrapWholeJson(WireProto::kBinary, line),
                                       WireProto::kBinary);
  // The passthrough carries the embedded line verbatim — including its
  // v=1 stamp — so the documents are equal member-for-member.
  EXPECT_EQ(WriteJson(json_doc), WriteJson(bin_doc));
  EXPECT_EQ(bin_doc.IntOr("requests", -1), 7);
}

TEST(ProtocolBinary, TemplatePayloadPathProducesIdenticalFrames) {
  // FinishWithPayload(shared template) must emit byte-identical frames to
  // the inline path in both encodings — the cache serves the same wire
  // bytes it would have rendered per request.
  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    auto shared = std::make_shared<const std::string>(
        WirePayload(proto)
            .AddUInt(WireField::kResultSize, 120)
            .AddBool(WireField::kCached, true)
            .Finish());
    WireFrame templated = WireResponse(proto, RequestOp::kQuery)
                              .AddString(WireField::kToken, "s42")
                              .FinishWithPayload(shared);
    WireFrame inline_frame = WireResponse(proto, RequestOp::kQuery)
                                 .AddString(WireField::kToken, "s42")
                                 .AddUInt(WireField::kResultSize, 120)
                                 .AddBool(WireField::kCached, true)
                                 .Finish();
    std::string templated_bytes = templated.head;
    if (templated.body) templated_bytes += *templated.body;
    std::string inline_bytes = inline_frame.head;
    if (inline_frame.body) inline_bytes += *inline_frame.body;
    EXPECT_EQ(templated_bytes, inline_bytes) << WireProtoName(proto);
    EXPECT_EQ(templated.body.get(), shared.get())
        << "template body copied instead of shared";
  }
}

TEST(ProtocolBinary, DecodeRejectsMalformedResponseBodies) {
  EXPECT_FALSE(DecodeBinaryResponse("").ok());
  EXPECT_FALSE(DecodeBinaryResponse("\x02").ok());
  EXPECT_FALSE(DecodeBinaryResponse("\x07\x01\x00").ok());  // bad version
  // Truncated field header / value after a valid envelope.
  WireFrame frame = WireResponse(WireProto::kBinary, RequestOp::kFind)
                        .AddBool(WireField::kFound, true)
                        .Finish();
  std::string bytes = frame.head;
  if (frame.body) bytes += *frame.body;
  std::string body = bytes.substr(kBinaryFrameHeaderBytes);
  for (size_t len = 4; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeBinaryResponse(body.substr(0, len)).ok())
        << "accepted truncated body of " << len << " bytes";
  }
  // An unknown field id with a known type is skipped, not an error.
  std::string forward = body;
  forward.push_back('\x63');  // id 99 (unregistered)
  forward.push_back('\x02');  // bool
  forward.push_back('\x01');
  auto decoded = DecodeBinaryResponse(forward);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie().BoolOr("found", false));
  // An unknown field TYPE is undecodable: its length is unknowable.
  std::string unknown_type = body;
  unknown_type.push_back('\x63');
  unknown_type.push_back('\x2a');  // type 42
  EXPECT_FALSE(DecodeBinaryResponse(unknown_type).ok());
}

TEST(LineFrameDecoderTest, OversizedCompleteLineLatchesAfterEarlierFrames) {
  LineFrameDecoder decoder(16);
  // One write: a short frame, a terminated 40-byte line, another frame.
  ASSERT_TRUE(decoder.Feed("ok\n" + std::string(40, 'x') + "\nlater\n"));
  std::string line;
  ASSERT_TRUE(decoder.has_frame());
  ASSERT_TRUE(decoder.Next(&line));
  EXPECT_EQ(line, "ok");
  EXPECT_FALSE(decoder.overflowed());
  EXPECT_FALSE(decoder.has_frame());  // The next line is over the cap.
  EXPECT_FALSE(decoder.Next(&line));
  EXPECT_TRUE(decoder.overflowed());
  EXPECT_FALSE(decoder.Next(&line));  // Latched: nothing past it.
  EXPECT_FALSE(decoder.Feed("more\n"));
}

}  // namespace
}  // namespace bionav
