// Inline-dispatch tests of NavServer: with every compute worker held by a
// cold EXPAND, the reactor still answers SHOWRESULTS, BACKTRACK, FIND and
// CLOSE on a resident, idle session and an EXPAND whose cut the query's
// memo holds — while an op on a parked session, on a pinned session, an
// EXPAND the memo cannot answer and a SHOWRESULTS over a large component
// wait for the pool. Inline replies are
// byte-identical to pool replies in both encodings, templates included.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;

/// Holds cold cuts (memo misses) while armed: the one compute worker that
/// picks up a cold EXPAND blocks inside ChooseEdgeCut until Release.
class CutGate {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }
  /// Called by a strategy about to compute a cut.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !armed_; });
  }
  /// Waits (up to 10 s) until a cut is held at the gate.
  bool AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return held_ > 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int held_ = 0;
};

class GatedStrategy : public HeuristicReducedOpt {
 public:
  GatedStrategy(const CostModel* cost_model, CutGate* gate)
      : HeuristicReducedOpt(cost_model), gate_(gate) {}

  EdgeCut ChooseEdgeCut(const ActiveTree& active, NavNodeId root) override {
    const CutMemo::Options memo_options{options().max_partitions,
                                        options().bound_growth};
    if (cut_memo().Find(memo_options, active, root).hit == nullptr) {
      gate_->Pass();
    }
    return HeuristicReducedOpt::ChooseEdgeCut(active, root);
  }

 private:
  CutGate* gate_;
};

std::string MakeSpillDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "bionav_inline_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

int64_t InlineCount(RequestOp op) {
  const Counter* counter = GlobalMetrics().FindCounter(
      "bionav_server_inline_" + ToLower(RequestOpName(op)) + "_total");
  return counter != nullptr ? counter->Value() : 0;
}

Request SessionRequest(RequestOp op, const std::string& token,
                       NavNodeId node = kInvalidNavNode) {
  Request request;
  request.op = op;
  request.token = token;
  request.node = node;
  return request;
}

class NavServerInline : public ::testing::TestWithParam<WireProto> {
 protected:
  /// A server over the fixture, or over `hierarchy` and `eutils`.
  std::unique_ptr<NavServer> StartServer(
      const std::string& spill_dir,
      const ConceptHierarchy* hierarchy = nullptr,
      const EUtilsClient* eutils = nullptr) {
    NavServerOptions options;
    options.threads = 1;  // One worker: one blocked cut holds the pool.
    options.session.spill_dir = spill_dir;
    CutGate* gate = &gate_;
    auto server = std::make_unique<NavServer>(
        hierarchy != nullptr ? hierarchy : &fixture_.mesh,
        eutils != nullptr ? eutils : fixture_.eutils.get(),
        [gate](const CostModel* model) -> std::unique_ptr<ExpandStrategy> {
          return std::make_unique<GatedStrategy>(model, gate);
        },
        options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  std::unique_ptr<NavClient> Connect(int port) {
    NavClientOptions options;
    options.proto = GetParam();
    // An op that should be inline but waits for the held pool fails the
    // test instead of hanging it.
    options.recv_timeout_ms = 10'000;
    auto client = NavClient::Connect("127.0.0.1", port, options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? client.TakeValue() : nullptr;
  }

  std::string Open(NavClient& client, const std::string& query) {
    auto opened = client.Query(query);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? opened.ValueOrDie().token : std::string();
  }

  MiniFixture fixture_;
  CutGate gate_;
};

TEST_P(NavServerInline, ResidentOpsAnswerWhileThePoolIsHeld) {
  auto server = StartServer(MakeSpillDir(
      GetParam() == WireProto::kJson ? "held_json" : "held_binary"));
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);

  // A parked session, then resident ones. The first EXPAND of the root
  // memoizes its cut for every later session of the query.
  const std::string parked = Open(*client, "prothymosin");
  ASSERT_TRUE(client->Expand(parked, NavigationTree::kRoot).ok());
  ASSERT_EQ(server->session_manager().SpillAll(), 1u);
  const std::string resident = Open(*client, "prothymosin");
  ASSERT_TRUE(client->Expand(resident, NavigationTree::kRoot).ok());
  const std::string memo_hit = Open(*client, "prothymosin");
  const std::string memo_miss = Open(*client, "neurology");
  const std::string pinned = Open(*client, "cardiology");

  // The pool's only worker takes a cold EXPAND and holds it.
  gate_.Arm();
  std::thread blocker([&] {
    auto own = Connect(server->port());
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->Expand(pinned, NavigationTree::kRoot).ok());
  });
  ASSERT_TRUE(gate_.AwaitHeld());

  // Ops that wait for the pool: a parked session (its restore reads a
  // file), the pinned session, and an EXPAND the memo cannot answer.
  std::atomic<int> waited{0};
  std::vector<std::thread> waiters;
  auto wait_on_pool = [&](Request request) {
    waiters.emplace_back([&, request] {
      auto own = Connect(server->port());
      ASSERT_NE(own, nullptr);
      auto reply = own->CallRaw(request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_TRUE(reply.ValueOrDie().BoolOr("ok", false));
      ++waited;
    });
  };
  wait_on_pool(SessionRequest(RequestOp::kShowResults, parked,
                              NavigationTree::kRoot));
  wait_on_pool(SessionRequest(RequestOp::kShowResults, pinned,
                              NavigationTree::kRoot));
  wait_on_pool(SessionRequest(RequestOp::kExpand, memo_miss,
                              NavigationTree::kRoot));

  // Ops the reactor answers although no worker is free.
  const int64_t inline_before = InlineCount(RequestOp::kExpand) +
                                InlineCount(RequestOp::kShowResults) +
                                InlineCount(RequestOp::kFind) +
                                InlineCount(RequestOp::kBacktrack) +
                                InlineCount(RequestOp::kClose);
  auto shown = client->ShowResults(resident, NavigationTree::kRoot);
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_GT(shown.ValueOrDie().total, 0u);
  auto found = client->Find(resident, fixture_.apoptosis);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(found.ValueOrDie().found);
  auto revealed = client->Expand(memo_hit, NavigationTree::kRoot);
  ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
  EXPECT_FALSE(revealed.ValueOrDie().empty());
  auto undone = client->Backtrack(resident);
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_TRUE(undone.ValueOrDie());
  EXPECT_TRUE(client->CloseSession(resident).ok());
  const int64_t inline_after = InlineCount(RequestOp::kExpand) +
                               InlineCount(RequestOp::kShowResults) +
                               InlineCount(RequestOp::kFind) +
                               InlineCount(RequestOp::kBacktrack) +
                               InlineCount(RequestOp::kClose);
  EXPECT_EQ(inline_after - inline_before, 5);

  // The waiters are still queued behind the held cut.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(waited.load(), 0);
  gate_.Release();
  blocker.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(waited.load(), 3);
  EXPECT_EQ(server->session_manager().stats().restored, 1);
  server->Shutdown();
}

TEST_P(NavServerInline, ShowResultsOfALargeComponentWaitsForThePool) {
  // Ranking grows with a component's results, so the reactor leaves a
  // SHOWRESULTS over more than kInlineShowMaxResults citations to the pool
  // even when its session is resident and idle.
  RandomInstance instance(/*seed=*/11, /*hierarchy_nodes=*/300,
                          /*result_size=*/400);
  ASSERT_GT(instance.result->size(),
            static_cast<size_t>(NavServer::kInlineShowMaxResults));
  const EUtilsClient eutils = instance.corpus->MakeClient();
  auto server = StartServer("", &instance.hierarchy, &eutils);
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);
  const std::string large = Open(*client, "randquery");
  const std::string cold = Open(*client, "randquery");

  gate_.Arm();
  std::thread blocker([&] {
    auto own = Connect(server->port());
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->Expand(cold, NavigationTree::kRoot).ok());
  });
  ASSERT_TRUE(gate_.AwaitHeld());

  const int64_t before = InlineCount(RequestOp::kShowResults);
  std::atomic<bool> shown{false};
  std::thread waiter([&] {
    auto own = Connect(server->port());
    ASSERT_NE(own, nullptr);
    auto reply = own->ShowResults(large, NavigationTree::kRoot, 0, 20);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.ValueOrDie().total, 20u);
    shown = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(shown.load());
  gate_.Release();
  blocker.join();
  waiter.join();
  EXPECT_TRUE(shown.load());
  EXPECT_EQ(InlineCount(RequestOp::kShowResults), before);
  server->Shutdown();
}

/// A raw connection in the parameter's encoding, for pipelining requests
/// and reading reply payloads byte for byte.
class WireConn {
 public:
  WireConn(int port, WireProto proto) : proto_(proto) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    if (connected_ && proto_ == WireProto::kBinary) {
      connected_ = SendAll(std::string(kBinaryPreamble, 4));
    }
  }
  ~WireConn() { ::close(fd_); }
  bool connected() const { return connected_; }

  /// Sends every request in one write: all but the first meet a backlog.
  bool Send(const std::vector<Request>& requests) {
    std::string bytes;
    for (const Request& request : requests) {
      bytes += EncodeRequestFrame(proto_, request);
    }
    return SendAll(bytes);
  }

  /// The next reply payload (a JSON line or a binary frame body).
  std::string Receive() {
    std::string payload;
    while (!(proto_ == WireProto::kBinary ? binary_.Next(&payload)
                                          : lines_.Next(&payload))) {
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return "";
      std::string_view chunk(buf, static_cast<size_t>(n));
      if (proto_ == WireProto::kBinary) {
        binary_.Feed(chunk);
      } else {
        lines_.Feed(chunk);
      }
    }
    return payload;
  }

 private:
  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  WireProto proto_;
  int fd_ = -1;
  bool connected_ = false;
  LineFrameDecoder lines_;
  BinaryFrameDecoder binary_;
};

TEST_P(NavServerInline, InlineRepliesMatchPoolRepliesByteForByte) {
  auto server = StartServer("");
  WireConn conn(server->port(), GetParam());
  ASSERT_TRUE(conn.connected());
  Request query;
  query.op = RequestOp::kQuery;
  query.query = "prothymosin";
  auto open = [&] {
    EXPECT_TRUE(conn.Send({query}));
    auto doc = DecodeResponse(GetParam(), conn.Receive());
    EXPECT_TRUE(doc.ok());
    auto reply = ReadResponse(RequestOp::kQuery, doc.ValueOrDie());
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? reply.ValueOrDie().token : std::string();
  };
  // Twin sessions walk the same script: `pooled` behind a STATS in one
  // write (so it meets a backlog and runs on the pool), then `inlined`
  // alone. Pool first, so the inline EXPAND finds its cut memoized and the
  // template rendered.
  const std::string pooled = open();
  const std::string inlined = open();
  Request stats;
  stats.op = RequestOp::kStats;
  Request find = SessionRequest(RequestOp::kFind, "");
  find.concept_id = fixture_.apoptosis;
  const std::vector<Request> script = {
      SessionRequest(RequestOp::kExpand, "", NavigationTree::kRoot),
      SessionRequest(RequestOp::kShowResults, "", NavigationTree::kRoot),
      find,
      SessionRequest(RequestOp::kBacktrack, ""),
      SessionRequest(RequestOp::kExpand, "", NavigationTree::kRoot),
      SessionRequest(RequestOp::kClose, ""),
  };
  for (const Request& step : script) {
    SCOPED_TRACE(RequestOpName(step.op));
    Request on_pool = step;
    on_pool.token = pooled;
    const int64_t before = InlineCount(step.op);
    ASSERT_TRUE(conn.Send({stats, on_pool}));
    conn.Receive();  // STATS.
    const std::string pool_reply = conn.Receive();
    EXPECT_EQ(InlineCount(step.op), before);

    Request on_reactor = step;
    on_reactor.token = inlined;
    ASSERT_TRUE(conn.Send({on_reactor}));
    const std::string inline_reply = conn.Receive();
    EXPECT_EQ(InlineCount(step.op), before + 1);
    EXPECT_FALSE(pool_reply.empty());
    EXPECT_EQ(inline_reply, pool_reply);
  }
  server->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(BothEncodings, NavServerInline,
                         ::testing::Values(WireProto::kJson,
                                           WireProto::kBinary),
                         [](const ::testing::TestParamInfo<WireProto>& info) {
                           return info.param == WireProto::kJson
                                      ? std::string("Json")
                                      : std::string("Binary");
                         });

}  // namespace
}  // namespace bionav
