// Wire-protocol response tests: the reply bytes of every op in both
// encodings against frames captured from the builders the response schema
// replaced, agreement of the typed decode step across encodings, the kWhole
// framing rule, and mutation fuzzers over reply frames of every op.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string Bytes(const WireFrame& frame) {
  return frame.head + (frame.body ? *frame.body : std::string());
}

/// A template reply: `head`'s fields, then `payload`'s as the shared body.
WireFrame WithPayload(WireResponse head, WireResponse payload) {
  return head.FinishWithPayload(
      std::make_shared<const std::string>(payload.FinishPayload()));
}

struct NamedFrame {
  std::string name;
  RequestOp op;
  WireFrame frame;
};

/// A reply of every op, built the way the server and the router build
/// them: inline and template paths, errors and whole documents.
std::vector<NamedFrame> ReplyFrames(WireProto p) {
  using W = WireResponse;
  const std::vector<BatchOutcome> outcomes = {
      {2, true, {4, 7}, "", ""},
      {9, false, {}, "INVALID_ARGUMENT", "node 9 \"x\""},
  };
  const std::vector<CitationSummary> summaries = {
      {12, "a \"b\"", 2001}, {9007199254740993u, "t", -5}};
  const std::vector<NavNodeId> revealed = {1, 5, 300};
  std::vector<NamedFrame> frames = {
      {"query", RequestOp::kQuery,
       W(p, RequestOp::kQuery)
           .Add(WireField::kToken, "s42")
           .Add(WireField::kResultSize, uint64_t{120})
           .Add(WireField::kCached, false)
           .Finish()},
      {"query_template", RequestOp::kQuery,
       WithPayload(std::move(W(p, RequestOp::kQuery)
                                 .Add(WireField::kToken, "s42")),
                   std::move(W(p, RequestOp::kQuery)
                                 .Add(WireField::kResultSize, uint64_t{120})
                                 .Add(WireField::kCached, true)))},
      {"expand", RequestOp::kExpand,
       W(p, RequestOp::kExpand).Add(WireField::kRevealed, revealed).Finish()},
      {"expand_empty", RequestOp::kExpand,
       W(p, RequestOp::kExpand)
           .Add(WireField::kRevealed, std::vector<NavNodeId>{})
           .Finish()},
      {"expand_template", RequestOp::kExpand,
       WithPayload(W(p, RequestOp::kExpand),
                   std::move(W(p, RequestOp::kExpand)
                                 .Add(WireField::kRevealed, revealed)))},
      {"batch_expand", RequestOp::kBatchExpand,
       W(p, RequestOp::kBatchExpand)
           .Add(WireField::kExpanded, uint64_t{1})
           .Add(WireField::kRevealed, std::vector<NavNodeId>{4, 7})
           .Add(WireField::kResults, outcomes)
           .Finish()},
      {"show", RequestOp::kShowResults,
       W(p, RequestOp::kShowResults)
           .Add(WireField::kTotal, summaries.size())
           .Add(WireField::kSummaries, summaries)
           .Finish()},
      {"show_template", RequestOp::kShowResults,
       WithPayload(W(p, RequestOp::kShowResults),
                   std::move(W(p, RequestOp::kShowResults)
                                 .Add(WireField::kTotal, summaries.size())
                                 .Add(WireField::kSummaries, summaries)))},
      {"backtrack", RequestOp::kBacktrack,
       W(p, RequestOp::kBacktrack).Add(WireField::kUndone, true).Finish()},
      {"find", RequestOp::kFind,
       W(p, RequestOp::kFind)
           .Add(WireField::kFound, true)
           .Add(WireField::kNode, 3)
           .Add(WireField::kVisible, false)
           .Add(WireField::kComponentRoot, 2)
           .Add(WireField::kDistinct, 4)
           .Finish()},
      {"find_missing", RequestOp::kFind,
       W(p, RequestOp::kFind)
           .Add(WireField::kFound, false)
           .Add(WireField::kNode, kInvalidNavNode)
           .Add(WireField::kVisible, false)
           .Add(WireField::kComponentRoot, kInvalidNavNode)
           .Add(WireField::kDistinct, 0)
           .Finish()},
      {"view", RequestOp::kView,
       W(p, RequestOp::kView)
           .Add(WireField::kTree,
                RawJson{R"({"label":"root","children":[{"label":"c"}]})"})
           .Finish()},
      {"close", RequestOp::kClose,
       W(p, RequestOp::kClose).Add(WireField::kClosed, true).Finish()},
      {"fetch_artifact", RequestOp::kFetchArtifact,
       W(p, RequestOp::kFetchArtifact)
           .Add(WireField::kArtifact, "Qk5BMWZha2U=")
           .Finish()},
      {"error", RequestOp::kExpand,
       W::Error(p, WireError::kUnknownSession, "no such token")},
      {"error_escaped", RequestOp::kQuery,
       W::Error(p, WireError::kInvalidArgument, "bad \"x\"\n")},
      {"stats", RequestOp::kStats,
       W(p, RequestOp::kStats)
           .Add("connections_accepted", int64_t{1})
           .Add("connections_shed", int64_t{2})
           .Add("connections_open", int64_t{3})
           .Add("connections_idle_closed", int64_t{4})
           .Add("requests", int64_t{5})
           .Add("protocol_errors", int64_t{6})
           .Add("oversized_frames", int64_t{7})
           .Add("epoll_wakeups", int64_t{8})
           .Add("bytes_rx", int64_t{9007199254740993})
           .Add("bytes_tx", int64_t{-10})
           .Add("threads", 4)
           .Add("io_threads", int64_t{2})
           .Add("sessions", RawJson{R"({"active":1})"})
           .Add("cache", RawJson{R"({"enabled":true})"})
           .Add("metrics", RawJson{R"({"counters":{}})"})
           .Finish()},
      {"router_stats", RequestOp::kStats,
       W(p, RequestOp::kStats)
           .Add("role", "router")
           .Add("router", RawJson{R"({"forwarded":3})"})
           .Add("fleet", RawJson{"{}"})
           .Add("hot_keys", RawJson{R"({"keys":[]})"})
           .Add("backends", RawJson{"[]"})
           .Add("metrics", RawJson{"{}"})
           .Finish()},
      {"metrics", RequestOp::kMetrics, MetricsReply(p, "# HELP x y\nx 1\n")},
      {"topology", RequestOp::kTopology,
       W(p, RequestOp::kTopology)
           .Add("generation", int64_t{3})
           .Add("vnodes", int64_t{128})
           .Add("seed", "18446744073709551615")
           .Add("backends",
                RawJson{R"([{"id":"b0","host":"127.0.0.1","port":7001,)"
                        R"("state":"healthy","draining":false}])"})
           .Finish()},
  };
  return frames;
}

struct GoldenFrame {
  const char* name;
  const char* head;
  const char* body;  // nullptr: the frame has no shared body
};

// Hex of the same frames from the builders the response schema replaced
// (ResponseBuilder, WirePayload, WrapWholeJson and the server's hand-written
// BATCH_EXPAND outcomes). A byte that moves here moves on the wire.
constexpr GoldenFrame kGoldenFrames[] = {
    {"query/json",
     "7b2276223a312c226f6b223a747275652c226f70223a225155455259222c2274"
     "6f6b656e223a22733432222c22726573756c745f73697a65223a3132302c2263"
     "6163686564223a66616c73657d0a",
     nullptr},
    {"query_template/json",
     "7b2276223a312c226f6b223a747275652c226f70223a225155455259222c2274"
     "6f6b656e223a2273343222",
     "2c22726573756c745f73697a65223a3132302c22636163686564223a74727565"
     "7d0a"},
    {"expand/json",
     "7b2276223a312c226f6b223a747275652c226f70223a22455850414e44222c22"
     "72657665616c6564223a5b312c352c3330305d7d0a",
     nullptr},
    {"expand_empty/json",
     "7b2276223a312c226f6b223a747275652c226f70223a22455850414e44222c22"
     "72657665616c6564223a5b5d7d0a",
     nullptr},
    {"expand_template/json",
     "7b2276223a312c226f6b223a747275652c226f70223a22455850414e4422",
     "2c2272657665616c6564223a5b312c352c3330305d7d0a"},
    {"batch_expand/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2242415443485f455850"
     "414e44222c22657870616e646564223a312c2272657665616c6564223a5b342c"
     "375d2c22726573756c7473223a5b7b226e6f6465223a322c226f6b223a747275"
     "652c2272657665616c6564223a5b342c375d7d2c7b226e6f6465223a392c226f"
     "6b223a66616c73652c226572726f72223a22494e56414c49445f415247554d45"
     "4e54222c226d657373616765223a226e6f64652039205c22785c22227d5d7d0a",
     nullptr},
    {"show/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2253484f57524553554c"
     "5453222c22746f74616c223a322c2273756d6d6172696573223a5b7b22706d69"
     "64223a31322c2279656172223a323030312c227469746c65223a2261205c2262"
     "5c22227d2c7b22706d6964223a393030373139393235343734303939332c2279"
     "656172223a2d352c227469746c65223a2274227d5d7d0a",
     nullptr},
    {"show_template/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2253484f57524553554c"
     "545322",
     "2c22746f74616c223a322c2273756d6d6172696573223a5b7b22706d6964223a"
     "31322c2279656172223a323030312c227469746c65223a2261205c22625c2222"
     "7d2c7b22706d6964223a393030373139393235343734303939332c2279656172"
     "223a2d352c227469746c65223a2274227d5d7d0a"},
    {"backtrack/json",
     "7b2276223a312c226f6b223a747275652c226f70223a224241434b545241434b"
     "222c22756e646f6e65223a747275657d0a",
     nullptr},
    {"find/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2246494e44222c22666f"
     "756e64223a747275652c226e6f6465223a332c2276697369626c65223a66616c"
     "73652c22636f6d706f6e656e745f726f6f74223a322c2264697374696e637422"
     "3a347d0a",
     nullptr},
    {"find_missing/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2246494e44222c22666f"
     "756e64223a66616c73652c226e6f6465223a2d312c2276697369626c65223a66"
     "616c73652c22636f6d706f6e656e745f726f6f74223a2d312c2264697374696e"
     "6374223a307d0a",
     nullptr},
    {"view/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2256494557222c227472"
     "6565223a7b226c6162656c223a22726f6f74222c226368696c6472656e223a5b"
     "7b226c6162656c223a2263227d5d7d7d0a",
     nullptr},
    {"close/json",
     "7b2276223a312c226f6b223a747275652c226f70223a22434c4f5345222c2263"
     "6c6f736564223a747275657d0a",
     nullptr},
    {"fetch_artifact/json",
     "7b2276223a312c226f6b223a747275652c226f70223a2246455443485f415254"
     "4946414354222c226172746966616374223a22516b35424d575a686132553d22"
     "7d0a",
     nullptr},
    {"error/json",
     "7b2276223a312c226f6b223a66616c73652c226572726f72223a22554e4b4e4f"
     "574e5f53455353494f4e222c226d657373616765223a226e6f20737563682074"
     "6f6b656e227d0a",
     nullptr},
    {"error_escaped/json",
     "7b2276223a312c226f6b223a66616c73652c226572726f72223a22494e56414c"
     "49445f415247554d454e54222c226d657373616765223a22626164205c22785c"
     "225c6e227d0a",
     nullptr},
    {"stats/json",
     "7b2276223a312c226f6b223a747275652c226f70223a225354415453222c2263"
     "6f6e6e656374696f6e735f6163636570746564223a312c22636f6e6e65637469"
     "6f6e735f73686564223a322c22636f6e6e656374696f6e735f6f70656e223a33"
     "2c22636f6e6e656374696f6e735f69646c655f636c6f736564223a342c227265"
     "717565737473223a352c2270726f746f636f6c5f6572726f7273223a362c226f"
     "76657273697a65645f6672616d6573223a372c2265706f6c6c5f77616b657570"
     "73223a382c2262797465735f7278223a39303037313939323534373430393933"
     "2c2262797465735f7478223a2d31302c2274687265616473223a342c22696f5f"
     "74687265616473223a322c2273657373696f6e73223a7b22616374697665223a"
     "317d2c226361636865223a7b22656e61626c6564223a747275657d2c226d6574"
     "72696373223a7b22636f756e74657273223a7b7d7d7d0a",
     nullptr},
    {"router_stats/json",
     "7b2276223a312c226f6b223a747275652c226f70223a225354415453222c2272"
     "6f6c65223a22726f75746572222c22726f75746572223a7b22666f7277617264"
     "6564223a337d2c22666c656574223a7b7d2c22686f745f6b657973223a7b226b"
     "657973223a5b5d7d2c226261636b656e6473223a5b5d2c226d65747269637322"
     "3a7b7d7d0a",
     nullptr},
    {"metrics/json",
     "7b2276223a312c226f6b223a747275652c226f70223a224d455452494353222c"
     "2274657874223a22232048454c50207820795c6e7820315c6e227d0a",
     nullptr},
    {"topology/json",
     "7b2276223a312c226f6b223a747275652c226f70223a22544f504f4c4f475922"
     "2c2267656e65726174696f6e223a332c22766e6f646573223a3132382c227365"
     "6564223a223138343436373434303733373039353531363135222c226261636b"
     "656e6473223a5b7b226964223a226230222c22686f7374223a223132372e302e"
     "302e31222c22706f7274223a373030312c227374617465223a226865616c7468"
     "79222c22647261696e696e67223a66616c73657d5d7d0a",
     nullptr},
    {"query/binary",
     "b20f000000020100010303733432020078030200",
     nullptr},
    {"query_template/binary",
     "b20f000000020100010303733432",
     "020078030201"},
    {"expand/binary",
     "b20a000000020101040503020ad804",
     nullptr},
    {"expand_empty/binary",
     "b206000000020101040500",
     nullptr},
    {"expand_template/binary",
     "b20a000000020101",
     "040503020ad804"},
    {"batch_expand/binary",
     "b27f000000020109130001040502080e1204715b7b226e6f6465223a322c226f"
     "6b223a747275652c2272657665616c6564223a5b342c375d7d2c7b226e6f6465"
     "223a392c226f6b223a66616c73652c226572726f72223a22494e56414c49445f"
     "415247554d454e54222c226d657373616765223a226e6f64652039205c22785c"
     "22227d5d",
     nullptr},
    {"show/binary",
     "b26400000002010205000206045b5b7b22706d6964223a31322c227965617222"
     "3a323030312c227469746c65223a2261205c22625c22227d2c7b22706d696422"
     "3a393030373139393235343734303939332c2279656172223a2d352c22746974"
     "6c65223a2274227d5d",
     nullptr},
    {"show_template/binary",
     "b264000000020102",
     "05000206045b5b7b22706d6964223a31322c2279656172223a323030312c2274"
     "69746c65223a2261205c22625c22227d2c7b22706d6964223a39303037313939"
     "3235343734303939332c2279656172223a2d352c227469746c65223a2274227d"
     "5d"},
    {"backtrack/binary",
     "b206000000020103070201",
     nullptr},
    {"find/binary",
     "b2120000000201040802010901060a02000b01040c0108",
     nullptr},
    {"find_missing/binary",
     "b2120000000201040802000901010a02000b01010c0100",
     nullptr},
    {"view/binary",
     "b2310000000201050d042b7b226c6162656c223a22726f6f74222c226368696c"
     "6472656e223a5b7b226c6162656c223a2263227d5d7d",
     nullptr},
    {"close/binary",
     "b2060000000201060e0201",
     nullptr},
    {"fetch_artifact/binary",
     "b21200000002010a14030c516b35424d575a686132553d",
     nullptr},
    {"error/binary",
     "b2250000000200ff0f030f554e4b4e4f574e5f53455353494f4e10030d6e6f20"
     "7375636820746f6b656e",
     nullptr},
    {"error_escaped/binary",
     "b2210000000200ff0f0310494e56414c49445f415247554d454e541003086261"
     "64202278220a",
     nullptr},
    {"stats/binary",
     "b25d0100000201fe1104d6027b2276223a312c226f6b223a747275652c226f70"
     "223a225354415453222c22636f6e6e656374696f6e735f616363657074656422"
     "3a312c22636f6e6e656374696f6e735f73686564223a322c22636f6e6e656374"
     "696f6e735f6f70656e223a332c22636f6e6e656374696f6e735f69646c655f63"
     "6c6f736564223a342c227265717565737473223a352c2270726f746f636f6c5f"
     "6572726f7273223a362c226f76657273697a65645f6672616d6573223a372c22"
     "65706f6c6c5f77616b65757073223a382c2262797465735f7278223a39303037"
     "3139393235343734303939332c2262797465735f7478223a2d31302c22746872"
     "65616473223a342c22696f5f74687265616473223a322c2273657373696f6e73"
     "223a7b22616374697665223a317d2c226361636865223a7b22656e61626c6564"
     "223a747275657d2c226d657472696373223a7b22636f756e74657273223a7b7d"
     "7d7d",
     nullptr},
    {"router_stats/binary",
     "b28b0000000201fe110484017b2276223a312c226f6b223a747275652c226f70"
     "223a225354415453222c22726f6c65223a22726f75746572222c22726f757465"
     "72223a7b22666f72776172646564223a337d2c22666c656574223a7b7d2c2268"
     "6f745f6b657973223a7b226b657973223a5b5d7d2c226261636b656e6473223a"
     "5b5d2c226d657472696373223a7b7d7d",
     nullptr},
    {"metrics/binary",
     "b2410000000201fe11043b7b2276223a312c226f6b223a747275652c226f7022"
     "3a224d455452494353222c2274657874223a22232048454c50207820795c6e78"
     "20315c6e227d",
     nullptr},
    {"topology/binary",
     "b2bd0000000201fe1104b6017b2276223a312c226f6b223a747275652c226f70"
     "223a22544f504f4c4f4759222c2267656e65726174696f6e223a332c22766e6f"
     "646573223a3132382c2273656564223a22313834343637343430373337303935"
     "3531363135222c226261636b656e6473223a5b7b226964223a226230222c2268"
     "6f7374223a223132372e302e302e31222c22706f7274223a373030312c227374"
     "617465223a226865616c746879222c22647261696e696e67223a66616c73657d"
     "5d7d",
     nullptr},
};

TEST(ProtocolResponse, FramesMatchParentBytes) {
  size_t compared = 0;
  for (WireProto proto : {WireProto::kJson, WireProto::kBinary}) {
    for (const NamedFrame& f : ReplyFrames(proto)) {
      const std::string name = f.name + "/" + WireProtoName(proto);
      const GoldenFrame* golden = nullptr;
      for (const GoldenFrame& g : kGoldenFrames) {
        if (name == g.name) golden = &g;
      }
      ASSERT_NE(golden, nullptr) << name;
      EXPECT_EQ(Hex(f.frame.head), golden->head) << name;
      EXPECT_EQ(f.frame.body ? Hex(*f.frame.body) : "-",
                golden->body != nullptr ? golden->body : "-")
          << name;
      ++compared;
    }
  }
  EXPECT_EQ(compared, std::size(kGoldenFrames));
}

/// Every typed member, for equality with a readable failure.
std::string Describe(const Response& r) {
  std::string out = std::string(RequestOpName(r.op)) +
                    (r.ok ? " ok" : " error=" + r.error + " message=" +
                                        r.message);
  auto ids = [](const std::vector<NavNodeId>& list) {
    std::string s = "[";
    for (NavNodeId id : list) s += std::to_string(id) + ",";
    return s + "]";
  };
  out += " token=" + r.token + " result_size=" + std::to_string(r.result_size) +
         " cached=" + std::to_string(r.cached) + " revealed=" +
         ids(r.revealed) + " expanded=" + std::to_string(r.expanded) +
         " results=";
  for (const BatchOutcome& o : r.outcomes) {
    out += "{" + std::to_string(o.node) + "," + std::to_string(o.ok) + "," +
           ids(o.revealed) + "," + o.error + "," + o.message + "}";
  }
  out += " total=" + std::to_string(r.total) + " summaries=";
  for (const CitationSummary& s : r.summaries) {
    out += "{" + std::to_string(s.pmid) + "," + std::to_string(s.year) + "," +
           s.title + "}";
  }
  out += " undone=" + std::to_string(r.undone) +
         " found=" + std::to_string(r.found) +
         " node=" + std::to_string(r.node) +
         " visible=" + std::to_string(r.visible) +
         " component_root=" + std::to_string(r.component_root) +
         " distinct=" + std::to_string(r.distinct) +
         " tree=" + WriteJson(r.tree) +
         " closed=" + std::to_string(r.closed) + " artifact=" + r.artifact +
         " document=" + WriteJson(r.document) + " text=" + r.text +
         " topology=" + std::to_string(r.topology.generation) + "," +
         std::to_string(r.topology.vnodes) + "," +
         std::to_string(r.topology.seed);
  for (const TopologyBackend& b : r.topology.backends) {
    out += "{" + b.id + "," + b.host + "," + std::to_string(b.port) + "," +
           b.state + "," + std::to_string(b.draining) + "}";
  }
  return out;
}

/// The payload a decoder sees: a JSON line without its '\n', or a binary
/// body without magic and length prefix.
std::string Payload(WireProto proto, const WireFrame& frame) {
  std::string bytes = Bytes(frame);
  return proto == WireProto::kJson
             ? bytes.substr(0, bytes.size() - 1)
             : bytes.substr(kBinaryFrameHeaderBytes);
}

Result<Response> Decode(WireProto proto, RequestOp op,
                        std::string_view payload) {
  Result<JsonValue> doc = DecodeResponse(proto, payload);
  if (!doc.ok()) return doc.status();
  return ReadResponse(op, doc.ValueOrDie());
}

Response Reply(RequestOp op) {
  Response r;
  r.op = op;
  r.ok = true;
  return r;
}

TEST(ProtocolResponse, JsonAndBinaryDecodeAgree) {
  constexpr uint64_t kTwoTo53Plus1 = 9007199254740993u;
  std::vector<Response> replies;
  Response query = Reply(RequestOp::kQuery);
  query.token = "s\"1\n";
  query.result_size = kTwoTo53Plus1;
  query.cached = true;
  replies.push_back(query);
  query.result_size = UINT64_MAX;
  replies.push_back(query);
  Response expand = Reply(RequestOp::kExpand);
  expand.revealed = {INT32_MAX, INT32_MIN, 0, -1};
  replies.push_back(expand);
  Response batch = Reply(RequestOp::kBatchExpand);
  batch.expanded = UINT64_MAX;
  batch.revealed = {INT32_MIN};
  batch.outcomes = {{INT32_MAX, true, {INT32_MIN, 7}, "", ""},
                   {INT32_MIN, false, {}, "NOT_FOUND", "gone \"x\""}};
  replies.push_back(batch);
  Response show = Reply(RequestOp::kShowResults);
  show.total = kTwoTo53Plus1;
  show.summaries = {{UINT64_MAX, "t\\", INT32_MIN},
                    {kTwoTo53Plus1, "", INT32_MAX}};
  replies.push_back(show);
  Response backtrack = Reply(RequestOp::kBacktrack);
  backtrack.undone = true;
  replies.push_back(backtrack);
  Response find = Reply(RequestOp::kFind);
  find.found = true;
  find.node = INT32_MIN;
  find.visible = true;
  find.component_root = INT32_MAX;
  find.distinct = -1;
  replies.push_back(find);
  Response view = Reply(RequestOp::kView);
  view.tree = ParseJson(R"({"n":9007199254740993,"c":[{"x":-2.5}]})")
                  .ValueOrDie();
  replies.push_back(view);
  Response close = Reply(RequestOp::kClose);
  close.closed = true;
  replies.push_back(close);
  Response fetch = Reply(RequestOp::kFetchArtifact);
  fetch.artifact = "Qk5BMQ==";
  replies.push_back(fetch);
  Response stats = Reply(RequestOp::kStats);
  stats.document =
      ParseJson(R"({"v":1,"ok":true,"op":"STATS","bytes_rx":18446744073709551615,)"
                R"("requests":9007199254740993,"cache":{"hits":-1}})")
          .ValueOrDie();
  replies.push_back(stats);
  Response metrics = Reply(RequestOp::kMetrics);
  metrics.document =
      ParseJson(R"({"v":1,"ok":true,"op":"METRICS","text":"x 1\n"})")
          .ValueOrDie();
  metrics.text = "x 1\n";
  replies.push_back(metrics);
  // TOPOLOGY's vnodes top out at the ring-size cap, not at int32.
  Response topology = Reply(RequestOp::kTopology);
  topology.document =
      ParseJson(R"({"v":1,"ok":true,"op":"TOPOLOGY","generation":)"
                R"(18446744073709551615,"vnodes":4096,)"
                R"("seed":"18446744073709551615","backends":[{"id":"b0",)"
                R"("host":"h","port":65535,"state":"healthy","draining":true}]})")
          .ValueOrDie();
  static_assert(kMaxRingVnodes == 4096);
  topology.topology = {UINT64_MAX, 4096, UINT64_MAX,
                       {{"b0", "h", 65535, "healthy", true}}};
  replies.push_back(topology);
  Response error;
  error.op = RequestOp::kFind;
  error.error = "UNKNOWN_SESSION";
  error.message = "no \"such\" token\n";
  replies.push_back(error);

  for (const Response& reply : replies) {
    Result<Response> from_json = Decode(
        WireProto::kJson, reply.op,
        Payload(WireProto::kJson, EncodeResponse(WireProto::kJson, reply)));
    Result<Response> from_binary =
        Decode(WireProto::kBinary, reply.op,
               Payload(WireProto::kBinary,
                       EncodeResponse(WireProto::kBinary, reply)));
    ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    EXPECT_EQ(Describe(from_json.ValueOrDie()), Describe(reply));
    EXPECT_EQ(Describe(from_binary.ValueOrDie()), Describe(reply));
  }

  // A uint64 past 2^53 keeps every digit from a binary varint as from a
  // JSON integer literal (binary once decoded to the nearest double).
  std::string body = {'\x02', '\x01', '\x00', '\x01', '\x03', '\x02', 's',
                      '1',    '\x02', '\x00'};
  AppendVarint(&body, kTwoTo53Plus1);
  Result<Response> binary = Decode(WireProto::kBinary, RequestOp::kQuery, body);
  Result<Response> json =
      Decode(WireProto::kJson, RequestOp::kQuery,
             R"({"v":1,"ok":true,"op":"QUERY","token":"s1",)"
             R"("result_size":9007199254740993})");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(binary.ValueOrDie().result_size, kTwoTo53Plus1);
  EXPECT_EQ(json.ValueOrDie().result_size, kTwoTo53Plus1);

  // Integers outside their member's type are Internal in both encodings.
  struct Rejected {
    RequestOp op;
    std::string json;
    std::string binary;  // body after [version][flags][op]
  };
  auto svarint = [](uint8_t id, int64_t v) {
    std::string field = {static_cast<char>(id), '\x01'};
    AppendVarint(&field, ZigzagEncode(v));
    return field;
  };
  const Rejected rejected[] = {
      {RequestOp::kFind, R"({"ok":true,"node":2147483648})",
       svarint(9, int64_t{1} << 31)},
      {RequestOp::kFind, R"({"ok":true,"distinct":-2147483649})",
       svarint(12, -2147483649)},
      {RequestOp::kFind, R"({"ok":true,"component_root":1099511627776})",
       svarint(11, int64_t{1} << 40)},
      {RequestOp::kExpand, R"({"ok":true,"revealed":[1099511627776]})",
       std::string("\x04\x05\x01", 3) +
           [] {
             std::string v;
             AppendVarint(&v, ZigzagEncode(int64_t{1} << 40));
             return v;
           }()},
  };
  for (const Rejected& r : rejected) {
    std::string frame = {'\x02', '\x01', static_cast<char>(r.op)};
    frame += r.binary;
    for (const auto& [proto, payload] :
         {std::pair(WireProto::kBinary, frame),
          std::pair(WireProto::kJson, r.json)}) {
      Result<Response> decoded = Decode(proto, r.op, payload);
      ASSERT_FALSE(decoded.ok()) << r.json << " " << WireProtoName(proto);
      EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
    }
  }
  // A reply naming another op is out of step with its request.
  EXPECT_FALSE(Decode(WireProto::kJson, RequestOp::kFind,
                      R"({"ok":true,"op":"EXPAND","revealed":[]})")
                   .ok());
  EXPECT_FALSE(Decode(WireProto::kBinary, RequestOp::kFind,
                      std::string("\x02\x01\x01", 3))
                   .ok());
}

TEST(ProtocolResponse, WholeFieldOnlyAsSoleFieldOfWholeFrame) {
  auto whole = [](char flags, char op, std::string_view doc) {
    std::string body = {'\x02', flags, op, '\x11', '\x04'};
    AppendVarint(&body, doc.size());
    body.append(doc);
    return body;
  };
  const std::string stats = R"({"v":1,"ok":true,"op":"STATS","a":1})";
  Result<JsonValue> good = DecodeBinaryResponse(whole('\x01', '\xFE', stats));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(WriteJson(good.ValueOrDie()), stats);
  EXPECT_TRUE(DecodeBinaryResponse(
                  whole('\x00', '\xFE', R"({"ok":false,"error":"X"})"))
                  .ok());

  const std::string rejected[] = {
      // The ok flag says error, the document says success.
      whole('\x00', '\xFE', stats),
      // A field after the document: known, then of an unknown type.
      whole('\x01', '\xFE', stats) + std::string("\x03\x02\x01", 3),
      whole('\x01', '\xFE', stats) + std::string("\x63\x2a\x01", 3),
      // Not an object.
      whole('\x01', '\xFE', "5"),
      // kWhole inside a field reply or an error frame.
      whole('\x01', '\x00', stats),
      whole('\x00', '\xFF', R"({"ok":false})"),
      // A whole-document frame without its document, or with a string.
      std::string("\x02\x01\xFE", 3),
      std::string("\x02\x01\xFE\x11\x03\x02{}", 7),
      // Op bytes outside the reply grammar.
      std::string("\x02\x01\x50", 3),
      std::string("\x02\x00\x03", 3),
  };
  for (const std::string& body : rejected) {
    EXPECT_FALSE(DecodeBinaryResponse(body).ok()) << Hex(body);
  }
}

// ---------------------------------------------------------------------------
// Fuzzers: every mutated reply is a typed error, or decodes to a Response
// that re-encodes in the other encoding and decodes back equal.
// ---------------------------------------------------------------------------

::testing::AssertionResult RejectsOrRoundTrips(WireProto proto, RequestOp op,
                                               std::string_view payload,
                                               bool* accepted) {
  Result<Response> decoded = Decode(proto, op, payload);
  *accepted = decoded.ok();
  if (!decoded.ok()) {
    if (decoded.status().message().empty()) {
      return ::testing::AssertionFailure() << "rejection without a message";
    }
    return ::testing::AssertionSuccess();
  }
  const WireProto other =
      proto == WireProto::kJson ? WireProto::kBinary : WireProto::kJson;
  const std::string back_payload =
      Payload(other, EncodeResponse(other, decoded.ValueOrDie()));
  Result<Response> back = Decode(other, op, back_payload);
  if (!back.ok()) {
    return ::testing::AssertionFailure()
           << Describe(decoded.ValueOrDie()) << " re-encoded as "
           << WireProtoName(other) << " was rejected: "
           << back.status().ToString();
  }
  if (Describe(back.ValueOrDie()) != Describe(decoded.ValueOrDie())) {
    return ::testing::AssertionFailure()
           << Describe(decoded.ValueOrDie()) << " came back from "
           << WireProtoName(other) << " as " << Describe(back.ValueOrDie());
  }
  return ::testing::AssertionSuccess();
}

struct Seed {
  RequestOp op;
  std::string payload;
};

std::vector<Seed> Seeds(WireProto proto) {
  std::vector<Seed> seeds;
  for (const NamedFrame& f : ReplyFrames(proto)) {
    seeds.push_back({f.op, Payload(proto, f.frame)});
  }
  return seeds;
}

/// Offsets of the field headers of a well-formed binary reply body.
std::vector<size_t> FieldHeaders(std::string_view body) {
  std::vector<size_t> headers;
  size_t pos = 3;
  while (pos < body.size()) {
    headers.push_back(pos);
    const uint8_t type = static_cast<uint8_t>(body[pos + 1]);
    pos += 2;
    uint64_t v = 0;
    BIONAV_CHECK(ReadVarint(body, &pos, &v));
    if (type == 3 || type == 4) pos += static_cast<size_t>(v);  // bytes
    for (uint64_t e = 0; type == 5 && v > 0; --v) {  // list entries
      BIONAV_CHECK(ReadVarint(body, &pos, &e));
    }
  }
  return headers;
}

TEST(ProtocolFuzz, BinaryResponseMutationsRejectOrRoundTrip) {
  const std::vector<Seed> seeds = Seeds(WireProto::kBinary);
  std::vector<std::vector<size_t>> headers;
  for (const Seed& seed : seeds) headers.push_back(FieldHeaders(seed.payload));
  // Values outside an int32 member, 2^53 + 1, and the uint64 edge.
  const uint64_t kEdges[] = {
      ZigzagEncode(int64_t{1} << 31), ZigzagEncode(-2147483649),
      ZigzagEncode(int64_t{1} << 40), uint64_t{1} << 40,
      9007199254740993u,              UINT64_MAX,
  };

  Rng rng(0xB2E5F022);
  constexpr int kIterations = 200000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const size_t which = rng.Uniform(seeds.size());
    std::string body = seeds[which].payload;
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
          if (h < body.size()) body[h] = static_cast<char>(rng.Uniform(22));
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
              AppendVarint(&encoded, kEdges[rng.Uniform(std::size(kEdges))]);
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
    bool ok = false;
    ASSERT_TRUE(
        RejectsOrRoundTrips(WireProto::kBinary, seeds[which].op, body, &ok))
        << "iteration " << iter << ": " << Hex(body);
    ++(ok ? accepted : rejected);
  }
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, kIterations / 20);
}

TEST(ProtocolFuzz, JsonResponseMutationsRejectOrRoundTrip) {
  const std::vector<Seed> seeds = Seeds(WireProto::kJson);
  const char* kNumbers[] = {"1e300",         "2.5", "1099511627776",
                            "9007199254740993", "-2147483649"};
  const std::string kAlphabet = "{}[]:,\"\\-.e0123456789 xutrfalsn";

  Rng rng(0x7507B2E5);
  constexpr int kIterations = 150000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const size_t which = rng.Uniform(seeds.size());
    std::string line = seeds[which].payload;
    for (uint64_t m = 1 + rng.Uniform(2); m > 0; --m) {
      const size_t at = line.empty() ? 0 : rng.Uniform(line.size());
      switch (rng.Uniform(4)) {
        case 0:  // character flip
          if (at == line.size()) break;
          line[at] = rng.Bernoulli(0.5)
                         ? kAlphabet[rng.Uniform(kAlphabet.size())]
                         : static_cast<char>(1 + rng.Uniform(255));
          break;
        case 1: {  // splice in a run of another reply
          const std::string& other = seeds[rng.Uniform(seeds.size())].payload;
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
    bool ok = false;
    ASSERT_TRUE(
        RejectsOrRoundTrips(WireProto::kJson, seeds[which].op, line, &ok))
        << "iteration " << iter << ": " << line;
    ++(ok ? accepted : rejected);
  }
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, kIterations / 20);
}

}  // namespace
}  // namespace bionav
