// Tests for the clients' reading of reply numbers: a reply is input like a
// request, so every integer it carries must be integral and fit its C++
// type. A scripted loopback peer answers each request line with a crafted
// reply; 1e300, 2^40 and 5.9 must each come back as a typed kInternal, never
// an undefined double conversion or a silently wrapped or truncated id. The
// same peer acting as a router serves TOPOLOGY replies to RoutedNavClient.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/routed_client.h"
#include "server/nav_client.h"

namespace bionav {
namespace {

/// One-connection loopback peer: reads a request line, answers with the
/// next scripted reply line, until the script runs out.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<std::string> replies)
      : replies_(std::move(replies)) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    BIONAV_CHECK_GE(listener_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    BIONAV_CHECK_EQ(
        ::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    BIONAV_CHECK_EQ(::listen(listener_, 1), 0);
    socklen_t len = sizeof(addr);
    BIONAV_CHECK_EQ(
        ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedPeer() {
    thread_.join();
    ::close(listener_);
  }

  int port() const { return port_; }

 private:
  void Serve() {
    int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return;
    for (const std::string& reply : replies_) {
      char c = 0;
      ssize_t n = 0;
      do {
        n = ::recv(fd, &c, 1, 0);
      } while (n == 1 && c != '\n');
      if (n != 1) break;
      const std::string line = reply + "\n";
      if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(line.size())) {
        break;
      }
    }
    ::close(fd);
  }

  std::vector<std::string> replies_;
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

std::unique_ptr<NavClient> ConnectTo(const ScriptedPeer& peer) {
  NavClientOptions options;
  options.proto = WireProto::kJson;
  options.recv_timeout_ms = 5000;
  auto connected = NavClient::Connect("127.0.0.1", peer.port(), options);
  BIONAV_CHECK(connected.ok()) << connected.status().ToString();
  return std::move(connected.ValueOrDie());
}

// 2^40: an exact integer that fits int64 but not NavNodeId.
constexpr const char* kTwoTo40 = "1099511627776";

TEST(NavClientReply, RevealedIdsMustBeInt32Integers) {
  const std::vector<std::string> bad = {"1e300", kTwoTo40, "5.9", "-1e300"};
  std::vector<std::string> replies;
  for (const std::string& id : bad) {
    replies.push_back(R"({"ok":true,"revealed":[3,)" + id + "]}");
  }
  replies.push_back(R"({"ok":true,"revealed":[3,-1,2147483647]})");
  ScriptedPeer peer(replies);
  auto client = ConnectTo(peer);
  for (const std::string& id : bad) {
    auto ids = client->Expand("tok", 0);
    ASSERT_FALSE(ids.ok()) << id;
    EXPECT_EQ(ids.status().code(), StatusCode::kInternal) << id;
  }
  auto ids = client->Expand("tok", 0);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.ValueOrDie(), (std::vector<NavNodeId>{3, -1, 2147483647}));
}

TEST(NavClientReply, BatchOutcomeIdsMustBeInt32Integers) {
  ScriptedPeer peer({
      R"({"ok":true,"expanded":1,"revealed":[],"results":[{"node":)" +
          std::string(kTwoTo40) + R"(,"ok":false}]})",
      R"({"ok":true,"expanded":1,"revealed":[],)"
      R"("results":[{"node":1,"ok":true,"revealed":[5.9]}]})",
      R"({"ok":true,"expanded":1e300,"revealed":[],"results":[]})",
      R"({"ok":true,"expanded":1,"revealed":[4],)"
      R"("results":[{"node":1,"ok":true,"revealed":[4]}]})",
  });
  auto client = ConnectTo(peer);
  for (int i = 0; i < 3; ++i) {
    auto reply = client->ExpandMany("tok", {1});
    ASSERT_FALSE(reply.ok()) << "reply " << i;
    EXPECT_EQ(reply.status().code(), StatusCode::kInternal) << "reply " << i;
  }
  auto reply = client->ExpandMany("tok", {1});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie().expanded, 1u);
  ASSERT_EQ(reply.ValueOrDie().outcomes.size(), 1u);
  EXPECT_EQ(reply.ValueOrDie().outcomes[0].node, 1);
  EXPECT_EQ(reply.ValueOrDie().outcomes[0].revealed,
            (std::vector<NavNodeId>{4}));
}

TEST(NavClientReply, FindAndShowFieldsMustFitTheirTypes) {
  ScriptedPeer peer({
      R"({"ok":true,"found":true,"node":1e300})",
      std::string(R"({"ok":true,"found":true,"node":2,"component_root":)") +
          kTwoTo40 + "}",
      R"({"ok":true,"found":true,"node":2,"distinct":5.9})",
      R"({"ok":true,"found":true,"node":2,"visible":true,)"
      R"("component_root":0,"distinct":7})",
      R"({"ok":true,"total":1e300,"summaries":[]})",
      std::string(R"({"ok":true,"total":1,"summaries":[{"pmid":1,"year":)") +
          kTwoTo40 + "}]}",
      R"({"ok":true,"total":1,"summaries":[{"pmid":5.9,"year":2001}]})",
      R"({"ok":true,"total":1,"summaries":[{"pmid":18446744073709551615,)"
      R"("year":2001,"title":"t"}]})",
      R"({"ok":true,"token":"t","result_size":-1})",
  });
  auto client = ConnectTo(peer);
  for (int i = 0; i < 3; ++i) {
    auto found = client->Find("tok", 0);
    ASSERT_FALSE(found.ok()) << "reply " << i;
    EXPECT_EQ(found.status().code(), StatusCode::kInternal);
  }
  auto found = client->Find("tok", 0);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.ValueOrDie().node, 2);
  EXPECT_EQ(found.ValueOrDie().component_root, 0);
  EXPECT_EQ(found.ValueOrDie().distinct, 7);
  for (int i = 0; i < 3; ++i) {
    auto shown = client->ShowResults("tok", 0);
    ASSERT_FALSE(shown.ok()) << "reply " << i;
    EXPECT_EQ(shown.status().code(), StatusCode::kInternal);
  }
  auto shown = client->ShowResults("tok", 0);
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  ASSERT_EQ(shown.ValueOrDie().summaries.size(), 1u);
  // An integer literal past 2^53 stays exact.
  EXPECT_EQ(shown.ValueOrDie().summaries[0].pmid, 18446744073709551615u);
  auto queried = client->Query("q");
  ASSERT_FALSE(queried.ok());
  EXPECT_EQ(queried.status().code(), StatusCode::kInternal);
}

std::string TopologyReply(const std::string& members,
                          const std::string& backend) {
  return R"({"v":1,"ok":true,"op":"TOPOLOGY",)" + members +
         R"(,"backends":[)" + backend + "]}";
}

TEST(RoutedClientTopology, ReplyFieldsMustFitTheirTypes) {
  const std::string members =
      R"("generation":3,"vnodes":64,"seed":"18446744073709551615")";
  const std::string backend =
      R"({"id":"b0","host":"127.0.0.1","port":7001,"state":"healthy",)"
      R"("draining":false})";
  std::string past_point_cap;
  for (size_t i = 0; i <= kMaxRingPoints / kMaxRingVnodes; ++i) {
    if (i > 0) past_point_cap += ",";
    past_point_cap += R"({"id":"b)" + std::to_string(i) +
                      R"(","host":"h","port":7001,"state":"healthy",)"
                      R"("draining":false})";
  }
  const std::vector<std::string> bad = {
      // 2^32 + 80 once narrowed to port 80; 65616 and 0 are no ports.
      TopologyReply(members, R"({"id":"b0","host":"h","port":4294967376})"),
      TopologyReply(members, R"({"id":"b0","host":"h","port":65616})"),
      TopologyReply(members, R"({"id":"b0","host":"h","port":0})"),
      TopologyReply(members, R"({"id":"b0","host":"h","port":80.5})"),
      TopologyReply(R"("generation":3,"vnodes":0,"seed":"1")", backend),
      TopologyReply(R"("generation":3,"vnodes":4294967297,"seed":"1")",
                    backend),
      // The seed is a whole decimal uint64, nothing else.
      TopologyReply(R"("generation":3,"vnodes":64,"seed":"-1")", backend),
      TopologyReply(R"("generation":3,"vnodes":64,"seed":"12abc")", backend),
      TopologyReply(
          R"("generation":3,"vnodes":64,"seed":"18446744073709551616")",
          backend),
      TopologyReply(R"("generation":-1,"vnodes":64,"seed":"1")", backend),
      // Past the ring-size cap, per backend and in all: a client that
      // built these rings would allocate until bad_alloc.
      TopologyReply(R"("generation":3,"vnodes":2147483647,"seed":"1")",
                    backend),
      TopologyReply(R"("generation":3,"vnodes":)" +
                        std::to_string(kMaxRingVnodes + 1) + R"(,"seed":"1")",
                    backend),
      TopologyReply(R"("generation":3,"vnodes":)" +
                        std::to_string(kMaxRingVnodes) + R"(,"seed":"1")",
                    past_point_cap),
  };
  std::vector<std::string> replies = {TopologyReply(members, backend)};
  replies.insert(replies.end(), bad.begin(), bad.end());
  replies.push_back(TopologyReply(
      R"("generation":4,"vnodes":512,"seed":"7")", backend));
  ScriptedPeer peer(replies);
  RoutedNavClientOptions options;
  options.client.recv_timeout_ms = 5000;
  auto connected = RoutedNavClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RoutedNavClient& client = *connected.ValueOrDie();
  EXPECT_EQ(client.topology().generation, 3u);
  EXPECT_EQ(client.topology().vnodes, 64);
  EXPECT_EQ(client.topology().seed, 18446744073709551615u);
  ASSERT_EQ(client.topology().backends.size(), 1u);
  EXPECT_EQ(client.topology().backends[0].port, 7001);
  for (const std::string& reply : bad) {
    Status refreshed = client.RefreshTopology();
    EXPECT_EQ(refreshed.code(), StatusCode::kInternal) << reply;
    EXPECT_EQ(client.topology().generation, 3u) << reply;
  }
  Status refreshed = client.RefreshTopology();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_EQ(client.topology().generation, 4u);
  EXPECT_EQ(client.topology().vnodes, 512);
  EXPECT_EQ(client.topology().seed, 7u);
}

}  // namespace
}  // namespace bionav
