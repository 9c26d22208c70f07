// Inline-dispatch tests of NavServer: with every compute worker held by a
// cold EXPAND, the reactor still answers SHOWRESULTS, BACKTRACK, FIND and
// CLOSE on a resident, idle session, a CLOSE of a parked one, an op on a
// session it restores from its in-memory record, and an EXPAND whose cut
// the query's memo holds —
// while an op on a session adopted from disk, on a pinned session, an
// EXPAND the memo cannot answer and a SHOWRESULTS over a large component
// wait for the pool. Inline replies are byte-identical to pool replies in
// both encodings, templates and restores included.

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

size_t CountSnapshotFiles(const std::string& dir) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") ++count;
  }
  return count;
}

/// Counts the spill tier's disk calls, and those made on a reactor thread.
class RecordingSpillStore : public SpillStore {
 public:
  using SpillStore::SpillStore;

  Status Put(const std::string& token, std::string_view record) override {
    Record();
    return SpillStore::Put(token, record);
  }
  Result<std::string> Get(const std::string& token) override {
    Record();
    return SpillStore::Get(token);
  }
  bool Delete(const std::string& token) override {
    Record();
    return SpillStore::Delete(token);
  }

  int calls() const { return calls_.load(); }
  int on_reactor() const { return on_reactor_.load(); }

 private:
  void Record() {
    ++calls_;
    if (EventLoop::OnAnyLoopThread()) ++on_reactor_;
  }

  std::atomic<int> calls_{0};
  std::atomic<int> on_reactor_{0};
};

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
    return StartServerWith(
        options,
        spill_dir.empty() ? nullptr : std::make_unique<SpillStore>(spill_dir),
        hierarchy, eutils);
  }

  /// As StartServer, with `options` and the spill tier on `spill`.
  std::unique_ptr<NavServer> StartServerWith(
      NavServerOptions options, std::unique_ptr<SpillStore> spill,
      const ConceptHierarchy* hierarchy = nullptr,
      const EUtilsClient* eutils = nullptr) {
    CutGate* gate = &gate_;
    auto server = std::make_unique<NavServer>(
        hierarchy != nullptr ? hierarchy : &fixture_.mesh,
        eutils != nullptr ? eutils : fixture_.eutils.get(),
        [gate](const CostModel* model) -> std::unique_ptr<ExpandStrategy> {
          return std::make_unique<GatedStrategy>(model, gate);
        },
        options, std::move(spill));
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
  // A session a predecessor parked: the server adopts its token from disk,
  // with no record in memory.
  const std::string dir = MakeSpillDir(
      GetParam() == WireProto::kJson ? "held_json" : "held_binary");
  std::string adopted;
  {
    SessionManagerOptions options;
    options.spill_dir = dir;
    SessionManager predecessor(&fixture_.mesh, fixture_.eutils.get(),
                               MakeBioNavStrategyFactory(), options);
    adopted = predecessor.Create("prothymosin").ValueOrDie();
    ASSERT_EQ(predecessor.SpillAll(), 1u);
  }
  auto server = StartServer(dir);
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

  // Ops that wait for the pool: the adopted session (its restore reads a
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
  wait_on_pool(SessionRequest(RequestOp::kShowResults, adopted,
                              NavigationTree::kRoot));
  wait_on_pool(SessionRequest(RequestOp::kShowResults, pinned,
                              NavigationTree::kRoot));
  wait_on_pool(SessionRequest(RequestOp::kExpand, memo_miss,
                              NavigationTree::kRoot));

  // Ops the reactor answers although no worker is free, the parked
  // session's restored from its in-memory record.
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
  auto parked_shown = client->ShowResults(parked, NavigationTree::kRoot);
  ASSERT_TRUE(parked_shown.ok()) << parked_shown.status().ToString();
  EXPECT_GT(parked_shown.ValueOrDie().total, 0u);
  const int64_t inline_after = InlineCount(RequestOp::kExpand) +
                               InlineCount(RequestOp::kShowResults) +
                               InlineCount(RequestOp::kFind) +
                               InlineCount(RequestOp::kBacktrack) +
                               InlineCount(RequestOp::kClose);
  EXPECT_EQ(inline_after - inline_before, 6);
  EXPECT_EQ(server->session_manager().stats().restored_inline, 1);

  // The waiters are still queued behind the held cut.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(waited.load(), 0);
  gate_.Release();
  blocker.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(waited.load(), 3);
  EXPECT_EQ(server->session_manager().stats().restored, 2);
  EXPECT_EQ(server->session_manager().stats().restored_inline, 1);
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

TEST_P(NavServerInline, StoredShowResultsTemplateAnswersInlineAtAnySize) {
  // A SHOWRESULTS whose reply template is stored skips the ranking, so the
  // reactor serves it whatever the component's size.
  RandomInstance instance(/*seed=*/11, /*hierarchy_nodes=*/300,
                          /*result_size=*/400);
  const EUtilsClient eutils = instance.corpus->MakeClient();
  auto server = StartServer("", &instance.hierarchy, &eutils);
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);
  const std::string first = Open(*client, "randquery");
  const std::string second = Open(*client, "randquery");
  const std::string cold = Open(*client, "randquery");
  auto rendered = client->ShowResults(first, NavigationTree::kRoot, 0, 20);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();

  gate_.Arm();
  std::thread blocker([&] {
    auto own = Connect(server->port());
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->Expand(cold, NavigationTree::kRoot).ok());
  });
  ASSERT_TRUE(gate_.AwaitHeld());
  const int64_t before = InlineCount(RequestOp::kShowResults);
  auto served = client->ShowResults(second, NavigationTree::kRoot, 0, 20);
  gate_.Release();
  blocker.join();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(InlineCount(RequestOp::kShowResults), before + 1);
  EXPECT_EQ(served.ValueOrDie().total, rendered.ValueOrDie().total);
  server->Shutdown();
}

TEST_P(NavServerInline, InlineOpsAnswerWhileATemplateRenderIsHeld) {
  // A template renders outside its store's lock: while one render of the
  // query is held, inline ops that look up that query's templates finish.
  auto server = StartServer("");
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);
  const std::string warm = Open(*client, "prothymosin");
  ASSERT_TRUE(client->Expand(warm, NavigationTree::kRoot).ok());
  std::shared_ptr<const QueryArtifacts> bundle =
      server->session_manager().cache()->Peek(NormalizeQueryKey("prothymosin"));
  ASSERT_NE(bundle, nullptr);

  std::mutex mu;
  std::condition_variable cv;
  bool rendering = false, release = false;
  std::thread renderer([&] {
    bundle->templates.GetOrRender("held", 0, [&] {
      std::unique_lock<std::mutex> lock(mu);
      rendering = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return std::string("held");
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return rendering; });
  }
  const int64_t queries = InlineCount(RequestOp::kQuery);
  const int64_t expands = InlineCount(RequestOp::kExpand);
  const std::string token = Open(*client, "prothymosin");
  auto revealed = client->Expand(token, NavigationTree::kRoot);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  renderer.join();
  EXPECT_FALSE(token.empty());
  ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
  EXPECT_EQ(InlineCount(RequestOp::kQuery), queries + 1);
  EXPECT_EQ(InlineCount(RequestOp::kExpand), expands + 1);
  server->Shutdown();
}

TEST_P(NavServerInline, ReactorIssuesNoSpillStoreIo) {
  // Parked-token traffic with a small table: inline QUERYs evict, inline
  // ops restore from memory, CLOSEs unlink, and an adopted token restores
  // from its file. Every spill-store call runs off the reactor, and so
  // does every artifact build (the peer-fetch hook runs inside each),
  // also for a key dropped from the cache just after it was built.
  const std::string dir = MakeSpillDir(
      GetParam() == WireProto::kJson ? "io_json" : "io_binary");
  std::string adopted;
  {
    SessionManagerOptions options;
    options.spill_dir = dir;
    SessionManager predecessor(&fixture_.mesh, fixture_.eutils.get(),
                               MakeBioNavStrategyFactory(), options);
    adopted = predecessor.Create("prothymosin").ValueOrDie();
    ASSERT_EQ(predecessor.SpillAll(), 1u);
  }
  NavServerOptions options;
  options.threads = 2;
  options.session.max_sessions = 3;
  options.session.spill_dir = dir;
  std::atomic<int> builds{0}, builds_on_reactor{0};
  options.session.peer_fetcher = [&](const std::string&) {
    ++builds;
    if (EventLoop::OnAnyLoopThread()) ++builds_on_reactor;
    return std::shared_ptr<const QueryArtifacts>();
  };
  auto owned = std::make_unique<RecordingSpillStore>(dir);
  RecordingSpillStore* store = owned.get();
  auto server = StartServerWith(options, std::move(owned));
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);
  const int64_t queries = InlineCount(RequestOp::kQuery);

  ASSERT_TRUE(client->ShowResults(adopted, NavigationTree::kRoot).ok());
  // Parked alone, its record is surely in memory: the reactor restores it.
  // (In the loop below, which parked records stay in memory past the cap
  // depends on when the pool writes the evictions.)
  ASSERT_EQ(server->session_manager().SpillAll(), 1u);
  ASSERT_TRUE(client->ShowResults(adopted, NavigationTree::kRoot).ok());
  EXPECT_EQ(server->session_manager().stats().restored_inline, 1);
  std::vector<std::string> tokens;
  for (int i = 0; i < 12; ++i) {
    // Past the third resident session, the open evicts one.
    tokens.push_back(Open(*client, "prothymosin"));
    const std::string& token = tokens[static_cast<size_t>(i) / 2];
    auto revealed = client->Expand(token, NavigationTree::kRoot);
    ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
    EXPECT_TRUE(client->ShowResults(token, NavigationTree::kRoot).ok());
    EXPECT_TRUE(client->Find(token, fixture_.apoptosis).ok());
    EXPECT_TRUE(client->Backtrack(token).ok());
    if (i % 4 == 3) {
      // Park everything; the CLOSE of a parked token unlinks its file.
      server->session_manager().SpillAll();
      EXPECT_TRUE(client->CloseSession(token).ok());
    }
  }
  // The key just built leaves the cache: the reactor declines the QUERY
  // and the restore that would need it, and the pool builds it again.
  QueryArtifactCache* cache = server->session_manager().cache();
  const int builds_before = builds.load();
  ASSERT_TRUE(cache->Invalidate(NormalizeQueryKey("prothymosin")));
  const std::string reopened = Open(*client, "prothymosin");
  server->session_manager().SpillAll();
  ASSERT_TRUE(cache->Invalidate(NormalizeQueryKey("prothymosin")));
  EXPECT_TRUE(client->ShowResults(reopened, NavigationTree::kRoot).ok());
  EXPECT_EQ(builds.load(), builds_before + 2);
  server->Shutdown();
  const SessionManagerStats stats = server->session_manager().stats();
  EXPECT_GT(stats.restored_inline, 0);
  EXPECT_GT(stats.restored, stats.restored_inline);
  EXPECT_GT(stats.spilled, 0);
  EXPECT_GT(InlineCount(RequestOp::kQuery), queries);
  EXPECT_GT(store->calls(), 0);
  EXPECT_EQ(store->on_reactor(), 0);
  EXPECT_EQ(builds_on_reactor.load(), 0);
}

TEST_P(NavServerInline, ParkedCloseAnswersInlineAndThePoolUnlinks) {
  // A CLOSE of a parked token never waits: the reactor answers it while
  // the pool is held, and the pool unlinks the token's file later.
  const std::string dir = MakeSpillDir(
      GetParam() == WireProto::kJson ? "close_json" : "close_binary");
  auto server = StartServer(dir);
  auto client = Connect(server->port());
  ASSERT_NE(client, nullptr);
  const std::string parked = Open(*client, "prothymosin");
  const std::string cold = Open(*client, "cardiology");
  ASSERT_EQ(server->session_manager().SpillAll(), 2u);
  ASSERT_EQ(CountSnapshotFiles(dir), 2u);

  // The reactor restores `cold` and leaves its cut to the pool's only
  // worker, which first unlinks `cold`'s file, then blocks on the cut.
  gate_.Arm();
  std::thread blocker([&] {
    auto own = Connect(server->port());
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->Expand(cold, NavigationTree::kRoot).ok());
  });
  ASSERT_TRUE(gate_.AwaitHeld());
  ASSERT_EQ(CountSnapshotFiles(dir), 1u);
  const int64_t before = InlineCount(RequestOp::kClose);
  EXPECT_TRUE(client->CloseSession(parked).ok());
  EXPECT_EQ(InlineCount(RequestOp::kClose), before + 1);
  EXPECT_EQ(server->session_manager().stats().spilled_now, 0u);
  EXPECT_EQ(CountSnapshotFiles(dir), 1u) << "unlinked on the reactor";
  gate_.Release();
  blocker.join();
  EXPECT_FALSE(client->CloseSession(parked).ok());
  server->Shutdown();  // Drains the pool, and with it the unlink.
  EXPECT_EQ(CountSnapshotFiles(dir), 0u);
  EXPECT_EQ(server->session_manager().stats().closed, 1);
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

TEST_P(NavServerInline, InlineRestoreRepliesMatchPoolRestoreReplies) {
  // Twin sessions are parked before every step; the pool restores one
  // (its op meets a backlog), the reactor the other from its in-memory
  // record, and the replies are byte-identical.
  auto server = StartServer(MakeSpillDir(
      GetParam() == WireProto::kJson ? "restore_json" : "restore_binary"));
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
  };
  SessionManager& sessions = server->session_manager();
  for (const Request& step : script) {
    SCOPED_TRACE(RequestOpName(step.op));
    ASSERT_EQ(sessions.SpillAll(), 2u);
    const int64_t inline_restores = sessions.stats().restored_inline;
    Request on_pool = step;
    on_pool.token = pooled;
    ASSERT_TRUE(conn.Send({stats, on_pool}));
    conn.Receive();  // STATS.
    const std::string pool_reply = conn.Receive();
    EXPECT_EQ(sessions.stats().restored_inline, inline_restores);

    Request on_reactor = step;
    on_reactor.token = inlined;
    const int64_t before = InlineCount(step.op);
    ASSERT_TRUE(conn.Send({on_reactor}));
    const std::string inline_reply = conn.Receive();
    EXPECT_EQ(InlineCount(step.op), before + 1);
    EXPECT_EQ(sessions.stats().restored_inline, inline_restores + 1);
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
