// Wire-protocol unit tests: JSON document round-trips, hostile/malformed
// inputs, request parsing/serialization for every op, and the typed error
// vocabulary.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
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
  auto v = ParseJson(R"({"n": 7, "s": "x", "b": true, "big": 1e300,)"
                     R"( "neg": -1e300})")
               .ValueOrDie();
  EXPECT_EQ(v.IntOr("n", -1), 7);
  // Numbers outside the int64 range have no int64 value -> default.
  EXPECT_EQ(v.IntOr("big", -1), -1);
  EXPECT_EQ(v.IntOr("neg", -1), -1);
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
  // A field reply: each value's C++ type picks its JSON rendering.
  WireFrame find = WireResponse(WireProto::kJson, RequestOp::kFind)
                       .Add(WireField::kFound, true)
                       .Add(WireField::kNode, 3)
                       .Add(WireField::kDistinct, -2)
                       .Finish();
  ASSERT_EQ(find.head.back(), '\n');
  auto v = ParseJson(std::string_view(find.head).substr(0, find.head.size() - 1));
  ASSERT_TRUE(v.ok()) << find.head;
  const JsonValue& r = v.ValueOrDie();
  EXPECT_EQ(r.IntOr("v", -1), kProtocolVersion);
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.StringOr("op", ""), "FIND");
  EXPECT_TRUE(r.BoolOr("found", false));
  EXPECT_EQ(r.IntOr("node", -1), 3);
  EXPECT_EQ(r.IntOr("distinct", 0), -2);

  // A whole-document reply: keyed members of every kind.
  WireFrame stats = WireResponse(WireProto::kJson, RequestOp::kStats)
                        .Add("count", int64_t{3})
                        .Add("name", "x")
                        .Add("list", RawJson{"[1,2]"})
                        .Finish();
  EXPECT_EQ(stats.head,
            "{\"v\":1,\"ok\":true,\"op\":\"STATS\",\"count\":3,"
            "\"name\":\"x\",\"list\":[1,2]}\n");
}

TEST(ProtocolResponse, ErrorReplyCarriesCodeAndMessage) {
  std::string line =
      WireResponse::Error(WireProto::kJson, WireError::kUnknownSession,
                          "no such token")
          .head;
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
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

    // JSON leg through the shared decode entry point.
    Request json_storage;
    RequestView json_view;
    ASSERT_EQ(DecodeRequest(WireProto::kJson, SerializeRequest(request),
                            &json_storage, &json_view, &message),
              WireError::kNone);

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
            .Add(WireField::kToken, "s42")
            .Add(WireField::kResultSize, uint64_t{120})
            .Add(WireField::kCached, true)
            .Finish();
      },
      +[](WireProto proto) {  // EXPAND
        return WireResponse(proto, RequestOp::kExpand)
            .Add(WireField::kRevealed, std::vector<NavNodeId>{1, 5, 9})
            .Finish();
      },
      +[](WireProto proto) {  // EXPAND, nothing revealed
        return WireResponse(proto, RequestOp::kExpand)
            .Add(WireField::kRevealed, std::vector<NavNodeId>{})
            .Finish();
      },
      +[](WireProto proto) {  // SHOWRESULTS
        return WireResponse(proto, RequestOp::kShowResults)
            .Add(WireField::kTotal, uint64_t{7})
            .Add(WireField::kSummaries,
                 RawJson{R"([{"uid":11,"title":"a \"b\""}])"})
            .Finish();
      },
      +[](WireProto proto) {  // BACKTRACK
        return WireResponse(proto, RequestOp::kBacktrack)
            .Add(WireField::kUndone, false)
            .Finish();
      },
      +[](WireProto proto) {  // FIND
        return WireResponse(proto, RequestOp::kFind)
            .Add(WireField::kFound, true)
            .Add(WireField::kNode, 3)
            .Add(WireField::kVisible, false)
            .Add(WireField::kComponentRoot, 2)
            .Add(WireField::kDistinct, 4)
            .Finish();
      },
      +[](WireProto proto) {  // VIEW
        return WireResponse(proto, RequestOp::kView)
            .Add(WireField::kTree,
                 RawJson{R"({"label":"root","children":[{"label":"c"}]})"})
            .Finish();
      },
      +[](WireProto proto) {  // CLOSE
        return WireResponse(proto, RequestOp::kClose)
            .Add(WireField::kClosed, true)
            .Finish();
      },
      +[](WireProto proto) {  // FETCH_ARTIFACT (base64 bundle payload)
        return WireResponse(proto, RequestOp::kFetchArtifact)
            .Add(WireField::kArtifact, "Qk5BMWZha2U=")
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
  auto stats = [](WireProto proto) {
    return WireResponse(proto, RequestOp::kStats)
        .Add("requests", int64_t{7})
        .Add("metrics", RawJson{R"({"counters":{"a":1}})"})
        .Finish();
  };
  JsonValue json_doc =
      DecodeFrameToDoc(stats(WireProto::kJson), WireProto::kJson);
  JsonValue bin_doc =
      DecodeFrameToDoc(stats(WireProto::kBinary), WireProto::kBinary);
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
        WireResponse(proto, RequestOp::kQuery)
            .Add(WireField::kResultSize, uint64_t{120})
            .Add(WireField::kCached, true)
            .FinishPayload());
    WireFrame templated = WireResponse(proto, RequestOp::kQuery)
                              .Add(WireField::kToken, "s42")
                              .FinishWithPayload(shared);
    WireFrame inline_frame = WireResponse(proto, RequestOp::kQuery)
                                 .Add(WireField::kToken, "s42")
                                 .Add(WireField::kResultSize, uint64_t{120})
                                 .Add(WireField::kCached, true)
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
                        .Add(WireField::kFound, true)
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

// ---------------------------------------------------------------------------
// One request grammar: both decoders agree, and survive mutation
// ---------------------------------------------------------------------------

/// The oracle set plus a BATCH_EXPAND, the one list-carrying op.
std::vector<Request> OracleRequestsWithBatch() {
  std::vector<Request> requests = OracleRequests();
  Request batch;
  batch.op = RequestOp::kBatchExpand;
  batch.token = "s42";
  batch.nodes = {0, 17, -5, 2147483647};
  requests.push_back(batch);
  return requests;
}

/// Hand-built binary v2 request bodies, so a case can carry values the C++
/// request types cannot hold. Ids and value types are the wire format's.
class BinaryBody {
 public:
  enum Id : uint8_t {
    kToken = 1,
    kQuery = 2,
    kNode = 3,
    kConcept = 4,
    kRetstart = 5,
    kRetmax = 6,
    kDepth = 7,
    kNodes = 8,
  };

  explicit BinaryBody(RequestOp op) {
    body_.push_back(static_cast<char>(kBinaryProtocolVersion));
    body_.push_back(static_cast<char>(op));
  }
  BinaryBody& Text(Id id, std::string_view text) {
    Head(id, 3);
    AppendVarint(&body_, text.size());
    body_.append(text);
    return *this;
  }
  BinaryBody& Int(Id id, int64_t value) {
    Head(id, 1);
    AppendVarint(&body_, ZigzagEncode(value));
    return *this;
  }
  BinaryBody& UInt(Id id, uint64_t value) {
    Head(id, 0);
    AppendVarint(&body_, value);
    return *this;
  }
  BinaryBody& List(Id id, std::initializer_list<int64_t> values) {
    Head(id, 5);
    AppendVarint(&body_, values.size());
    for (int64_t v : values) AppendVarint(&body_, ZigzagEncode(v));
    return *this;
  }
  const std::string& body() const { return body_; }

 private:
  void Head(Id id, uint8_t type) {
    body_.push_back(static_cast<char>(id));
    body_.push_back(static_cast<char>(type));
  }
  std::string body_;
};

/// Decodes `payload` through the real receive path of `proto`: a binary
/// body is re-framed with a correct length prefix and popped by
/// BinaryFrameDecoder; a JSON line goes through LineFrameDecoder.
/// `*popped` backs the view's string fields.
WireError DecodeThroughFraming(WireProto proto, std::string_view payload,
                               std::string* popped, Request* storage,
                               RequestView* view, std::string* message) {
  std::string frame;
  bool have = false;
  if (proto == WireProto::kBinary) {
    frame.push_back(static_cast<char>(kBinaryFrameMagic));
    const uint32_t length = static_cast<uint32_t>(payload.size());
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<char>((length >> shift) & 0xff));
    }
    frame.append(payload);
    BinaryFrameDecoder decoder;
    have = decoder.Feed(frame) && decoder.Next(popped);
  } else {
    frame = std::string(payload) + "\n";
    LineFrameDecoder decoder;
    have = decoder.Feed(frame) && decoder.Next(popped);
  }
  if (!have) {
    *message = "frame decoder did not pop the frame";
    return WireError::kInternal;
  }
  return DecodeRequest(proto, *popped, storage, view, message);
}

bool SameRequest(const RequestView& a, const RequestView& b) {
  return a.op == b.op && a.token == b.token && a.query == b.query &&
         a.node == b.node && a.nodes == b.nodes &&
         a.concept_id == b.concept_id && a.retstart == b.retstart &&
         a.retmax == b.retmax && a.depth == b.depth;
}

/// An owned JSON-version copy of a view, for re-encoding it.
Request OwnedRequest(const RequestView& view) {
  Request request;
  request.op = view.op;
  request.token = view.token;
  request.query = view.query;
  request.node = view.node;
  request.nodes = view.nodes;
  request.concept_id = view.concept_id;
  request.retstart = view.retstart;
  request.retmax = view.retmax;
  request.depth = view.depth;
  return request;
}

std::string Describe(const RequestView& view) {
  return SerializeRequest(OwnedRequest(view));
}

TEST(ProtocolRequest, JsonAndBinaryDecodersAgree) {
  struct Case {
    std::string json;
    std::string binary;
    const char* rejected_field;  // nullptr: both must accept
  };
  using B = BinaryBody;
  std::vector<Case> cases;
  for (const Request& request : OracleRequestsWithBatch()) {
    cases.push_back({SerializeRequest(request),
                     SerializeRequestBinary(request).substr(
                         kBinaryFrameHeaderBytes),
                     nullptr});
  }
  const std::string expand = R"({"v":1,"op":"EXPAND","token":"s1",)";
  auto expand_body = [] {
    return B(RequestOp::kExpand).Text(B::kToken, "s1");
  };
  // int32 members: both edges pass, one past either edge fails (2^32+5
  // was once read as node 5).
  cases.push_back({expand + R"("node":2147483647})",
                   expand_body().Int(B::kNode, INT32_MAX).body(), nullptr});
  cases.push_back({expand + R"("node":-2147483648})",
                   expand_body().Int(B::kNode, INT32_MIN).body(), nullptr});
  cases.push_back({expand + R"("node":-0})",
                   expand_body().Int(B::kNode, 0).body(), nullptr});
  cases.push_back({expand + R"("node":4294967301})",
                   expand_body().Int(B::kNode, 4294967301).body(), "node"});
  cases.push_back({expand + R"("node":-2147483649})",
                   expand_body().Int(B::kNode, -2147483649).body(), "node"});
  cases.push_back(
      {R"({"v":1,"op":"FIND","token":"s1","concept":2147483648})",
       B(RequestOp::kFind)
           .Text(B::kToken, "s1")
           .Int(B::kConcept, 2147483648)
           .body(),
       "concept"});
  cases.push_back({R"({"v":1,"op":"VIEW","token":"s1","depth":1099511627776})",
                   B(RequestOp::kView)
                       .Text(B::kToken, "s1")
                       .Int(B::kDepth, int64_t{1} << 40)
                       .body(),
                   "depth"});
  cases.push_back(
      {R"({"v":1,"op":"BATCH_EXPAND","token":"s1","nodes":[1,4294967301]})",
       B(RequestOp::kBatchExpand)
           .Text(B::kToken, "s1")
           .List(B::kNodes, {1, 4294967301})
           .body(),
       "nodes"});
  // uint64 members keep every digit in both encodings, past 2^53 too.
  cases.push_back(
      {R"({"v":1,"op":"SHOWRESULTS","token":"s1","node":2,)"
       R"("retstart":18446744073709551615,"retmax":9007199254740993})",
       B(RequestOp::kShowResults)
           .Text(B::kToken, "s1")
           .Int(B::kNode, 2)
           .UInt(B::kRetstart, UINT64_MAX)
           .UInt(B::kRetmax, 9007199254740993u)
           .body(),
       nullptr});
  // A field the op does not carry is ignored, whatever its value.
  cases.push_back({expand + R"("node":1,"depth":4294967301})",
                   expand_body()
                       .Int(B::kNode, 1)
                       .Int(B::kDepth, 4294967301)
                       .body(),
                   nullptr});

  for (const Case& c : cases) {
    std::string json_popped, binary_popped, json_message, binary_message;
    Request json_storage, binary_storage;
    RequestView json_view, binary_view;
    WireError json_error =
        DecodeThroughFraming(WireProto::kJson, c.json, &json_popped,
                             &json_storage, &json_view, &json_message);
    WireError binary_error = DecodeThroughFraming(
        WireProto::kBinary, c.binary, &binary_popped, &binary_storage,
        &binary_view, &binary_message);
    if (c.rejected_field == nullptr) {
      ASSERT_EQ(json_error, WireError::kNone) << c.json << ": " << json_message;
      ASSERT_EQ(binary_error, WireError::kNone)
          << c.json << ": " << binary_message;
      EXPECT_TRUE(SameRequest(json_view, binary_view))
          << c.json << " decoded from binary as " << Describe(binary_view);
      continue;
    }
    EXPECT_EQ(json_error, WireError::kBadRequest)
        << c.json << " accepted as " << Describe(json_view);
    EXPECT_EQ(binary_error, WireError::kBadRequest)
        << c.json << " accepted from binary as " << Describe(binary_view);
    EXPECT_NE(json_message.find(c.rejected_field), std::string::npos)
        << json_message;
    EXPECT_NE(binary_message.find(c.rejected_field), std::string::npos)
        << binary_message;
  }

  // Fractions and numbers past 2^64 exist only in JSON; BAD_REQUEST there
  // (once a UB double->int cast, or a silent truncation).
  const std::pair<std::string, const char*> json_only[] = {
      {expand + R"("node":5.9})", "node"},
      {expand + R"("node":1e300})", "node"},
      {R"({"v":1,"op":"VIEW","token":"s1","depth":1e300})", "depth"},
      {R"({"v":1,"op":"SHOWRESULTS","token":"s1","node":2,"retstart":2.5})",
       "retstart"},
      {R"({"v":1,"op":"SHOWRESULTS","token":"s1","node":2,"retmax":-1})",
       "retmax"},
      {R"({"v":1,"op":"BATCH_EXPAND","token":"s1","nodes":[1,1.5]})",
       "nodes"},
      {R"({"v":1,"op":"BATCH_EXPAND","token":"s1","nodes":[1,"2"]})",
       "nodes"},
  };
  for (const auto& [line, field] : json_only) {
    Request parsed;
    std::string message;
    EXPECT_EQ(ParseRequest(line, &parsed, &message), WireError::kBadRequest)
        << line << " accepted as " << SerializeRequest(parsed);
    EXPECT_NE(message.find(field), std::string::npos) << message;
  }
}

/// The fuzz oracle: a decode either failed with a typed error and a
/// message, or yielded a view that re-encodes in the other encoding and
/// decodes back to an equal view.
::testing::AssertionResult RejectsOrRoundTrips(WireProto proto,
                                               WireError error,
                                               const std::string& message,
                                               const RequestView& view) {
  if (error != WireError::kNone) {
    if (error != WireError::kBadRequest &&
        error != WireError::kUnsupportedVersion) {
      return ::testing::AssertionFailure()
             << "untyped rejection " << WireErrorName(error);
    }
    if (message.empty()) {
      return ::testing::AssertionFailure() << "rejection without a message";
    }
    return ::testing::AssertionSuccess();
  }
  const Request owned = OwnedRequest(view);
  const WireProto other =
      proto == WireProto::kJson ? WireProto::kBinary : WireProto::kJson;
  std::string frame = EncodeRequestFrame(other, owned);
  std::string payload = other == WireProto::kBinary
                            ? frame.substr(kBinaryFrameHeaderBytes)
                            : frame.substr(0, frame.size() - 1);
  std::string popped, back_message;
  Request storage;
  RequestView back;
  WireError back_error = DecodeThroughFraming(other, payload, &popped,
                                              &storage, &back, &back_message);
  if (back_error != WireError::kNone) {
    return ::testing::AssertionFailure()
           << Describe(view) << " re-encoded as " << WireProtoName(other)
           << " was rejected: " << back_message;
  }
  if (!SameRequest(view, back)) {
    return ::testing::AssertionFailure()
           << Describe(view) << " came back from " << WireProtoName(other)
           << " as " << Describe(back);
  }
  return ::testing::AssertionSuccess();
}

/// Offsets of the field headers of a well-formed binary request body.
std::vector<size_t> FieldHeaders(std::string_view body) {
  std::vector<size_t> headers;
  size_t pos = 2;
  while (pos < body.size()) {
    headers.push_back(pos);
    const uint8_t type = static_cast<uint8_t>(body[pos + 1]);
    pos += 2;
    uint64_t v = 0;
    BIONAV_CHECK(ReadVarint(body, &pos, &v));
    if (type == 3) pos += static_cast<size_t>(v);  // string bytes
    for (uint64_t e = 0; type == 5 && v > 0; --v) {  // list entries
      BIONAV_CHECK(ReadVarint(body, &pos, &e));
    }
  }
  return headers;
}

TEST(ProtocolFuzz, BinaryRequestMutationsRejectOrRoundTrip) {
  std::vector<std::string> seeds;
  std::vector<std::vector<size_t>> headers;
  for (const Request& request : OracleRequestsWithBatch()) {
    seeds.push_back(
        SerializeRequestBinary(request).substr(kBinaryFrameHeaderBytes));
    headers.push_back(FieldHeaders(seeds.back()));
  }
  // Values that do not fit an int32 or uint64 member, as raw varints.
  const uint64_t kOutOfRange[] = {
      ZigzagEncode(int64_t{1} << 31),   ZigzagEncode(4294967301),
      ZigzagEncode(-2147483649),        ZigzagEncode(INT64_MIN),
      uint64_t{1} << 63,                UINT64_MAX,
  };

  Rng rng(0xF022B2);
  constexpr int kIterations = 300000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const size_t which = rng.Uniform(seeds.size());
    std::string body = seeds[which];
    const std::vector<size_t>& fields = headers[which];
    for (uint64_t m = 1 + rng.Uniform(2); m > 0; --m) {
      const size_t at = body.empty() ? 0 : rng.Uniform(body.size());
      switch (rng.Uniform(fields.empty() ? 3 : 6)) {
        case 0:  // bit flip
          if (at < body.size()) {
            body[at] = static_cast<char>(body[at] ^ (1 << rng.Uniform(8)));
          }
          break;
        case 1:  // insert a byte
          body.insert(at, 1, static_cast<char>(rng.Uniform(256)));
          break;
        case 2:  // delete a short run
          body.erase(at, 1 + rng.Uniform(4));
          break;
        case 3: {  // rewrite a field id
          size_t h = fields[rng.Uniform(fields.size())];
          if (h < body.size()) body[h] = static_cast<char>(rng.Uniform(10));
          break;
        }
        case 4: {  // rewrite a field type
          size_t h = fields[rng.Uniform(fields.size())] + 1;
          if (h < body.size()) body[h] = static_cast<char>(rng.Uniform(7));
          break;
        }
        default: {  // rewrite the varint after a field header
          size_t start = fields[rng.Uniform(fields.size())] + 2;
          size_t end = start;
          uint64_t old = 0;
          if (!ReadVarint(body, &end, &old)) break;
          std::string encoded;
          switch (rng.Uniform(4)) {
            case 0:
              AppendVarint(&encoded, old + 1 + rng.Uniform(3));
              break;
            case 1:
              AppendVarint(&encoded, old > 0 ? old - 1 : 0);
              break;
            case 2:
              AppendVarint(&encoded,
                           kOutOfRange[rng.Uniform(std::size(kOutOfRange))]);
              break;
            default:  // the same value, overlong
              AppendVarint(&encoded, old);
              encoded.back() = static_cast<char>(encoded.back() | 0x80);
              encoded.push_back('\0');
              break;
          }
          body.replace(start, end - start, encoded);
          break;
        }
      }
    }
    std::string popped, message;
    Request storage;
    RequestView view;
    WireError error = DecodeThroughFraming(WireProto::kBinary, body, &popped,
                                           &storage, &view, &message);
    ASSERT_TRUE(RejectsOrRoundTrips(WireProto::kBinary, error, message, view))
        << "iteration " << iter;
    ++(error == WireError::kNone ? accepted : rejected);
  }
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, kIterations / 20);
}

TEST(ProtocolFuzz, JsonRequestMutationsRejectOrRoundTrip) {
  std::vector<std::string> seeds;
  for (const Request& request : OracleRequestsWithBatch()) {
    seeds.push_back(SerializeRequest(request));
  }
  const char* kNumbers[] = {"1e300", "-0", "2.5", "4294967301",
                            "-2147483649"};
  const std::string kAlphabet = "{}[]:,\"\\-.e0123456789 xu";

  Rng rng(0x7507F022);
  constexpr int kIterations = 150000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string line = seeds[rng.Uniform(seeds.size())];
    for (uint64_t m = 1 + rng.Uniform(2); m > 0; --m) {
      const size_t at = line.empty() ? 0 : rng.Uniform(line.size());
      switch (rng.Uniform(4)) {
        case 0:  // character flip
          if (at == line.size()) break;
          line[at] = rng.Bernoulli(0.5)
                         ? kAlphabet[rng.Uniform(kAlphabet.size())]
                         : static_cast<char>(1 + rng.Uniform(255));
          break;
        case 1: {  // splice in a run of another request
          const std::string& other = seeds[rng.Uniform(seeds.size())];
          size_t from = rng.Uniform(other.size());
          size_t len = 1 + rng.Uniform(other.size() - from);
          line.replace(at, rng.Uniform(16), other, from, len);
          break;
        }
        case 2:  // delete a short run
          line.erase(at, 1 + rng.Uniform(4));
          break;
        default: {  // replace a number with an edge value
          std::vector<size_t> starts;
          for (size_t i = 0; i < line.size(); ++i) {
            bool digit = line[i] >= '0' && line[i] <= '9';
            bool after_digit =
                i > 0 && line[i - 1] >= '0' && line[i - 1] <= '9';
            if (digit && !after_digit) starts.push_back(i);
          }
          if (starts.empty()) break;
          size_t start = starts[rng.Uniform(starts.size())];
          size_t end = start;
          while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
            ++end;
          }
          if (start > 0 && line[start - 1] == '-') --start;
          line.replace(start, end - start,
                       kNumbers[rng.Uniform(std::size(kNumbers))]);
          break;
        }
      }
    }
    std::string popped, message;
    Request storage;
    RequestView view;
    WireError error;
    if (line.find('\n') != std::string::npos) {
      // A raw newline would split the frame; decode the line directly.
      error = DecodeRequest(WireProto::kJson, line, &storage, &view, &message);
    } else {
      error = DecodeThroughFraming(WireProto::kJson, line, &popped, &storage,
                                   &view, &message);
    }
    ASSERT_TRUE(RejectsOrRoundTrips(WireProto::kJson, error, message, view))
        << "iteration " << iter << ": " << line;
    ++(error == WireError::kNone ? accepted : rejected);
  }
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, kIterations / 20);
}

}  // namespace
}  // namespace bionav
