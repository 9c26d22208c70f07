#include "server/nav_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json_export.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace bionav {

namespace {

Gauge* EpollWakeupsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge(
      "bionav_server_epoll_wakeups", "Reactor epoll_wait returns (monotone)");
  return gauge;
}

LatencyHistogram* ReadToDispatchHistogram() {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_server_read_to_dispatch_us",
      "Frame decode to compute pickup latency");
  return hist;
}

/// Request latency by wire op ("bionav_server_op_expand_us") — the
/// serving-side counterpart of the client-observed numbers bench_serving
/// reports. Registered once per op.
LatencyHistogram* OpLatencyHistogram(RequestOp op) {
  static const std::vector<LatencyHistogram*> hists = [] {
    std::vector<LatencyHistogram*> out;
    for (int i = 0; i < kNumRequestOps; ++i) {
      const std::string name = RequestOpName(static_cast<RequestOp>(i));
      out.push_back(GlobalMetrics().GetHistogram(
          "bionav_server_op_" + ToLower(name) + "_us",
          name + " request latency"));
    }
    return out;
  }();
  return hists[static_cast<size_t>(op)];
}

}  // namespace

NavServer::NavServer(const ConceptHierarchy* hierarchy,
                     const EUtilsClient* eutils,
                     StrategyFactory strategy_factory, NavServerOptions options)
    : options_(std::move(options)),
      sessions_(hierarchy, eutils,
                strategy_factory ? std::move(strategy_factory)
                                 : MakeBioNavStrategyFactory(),
                options_.session, options_.cost_params),
      frontend_(options_, "server",
                [this](const ConnPtr& conn, uint64_t seq, std::string& payload,
                       bool no_backlog) {
                  Dispatch(conn, seq, payload, no_backlog);
                }),
      pool_(options_.threads < 1 ? 1 : options_.threads) {}

Status NavServer::Start() {
  const int inherited = options_.inherit_listen_fd;
  if (inherited >= 0) {
    // Warm restart: the predecessor's listener, already bound and
    // listening, arrives across exec. Re-assert the flags a fresh listener
    // would have (the dup dropped CLOEXEC deliberately; NONBLOCK is shared
    // but cheap to enforce); the front-end reads the port back off it.
    int flags = ::fcntl(inherited, F_GETFL, 0);
    if (flags < 0 || ::fcntl(inherited, F_SETFL, flags | O_NONBLOCK) != 0) {
      Status status = Status::IOError(
          std::string("inherited listener unusable: ") + std::strerror(errno));
      ::close(inherited);
      return status;
    }
    ::fcntl(inherited, F_SETFD, FD_CLOEXEC);
  }
  Status started = frontend_.Start(inherited);
  if (!started.ok()) return started;
  if (sessions_.spill_enabled() && options_.session.spill_after_ms > 0) {
    frontend_.loop(0)->RunInLoop([this] { ArmSpillSweep(); });
  }
  return Status::OK();
}

void NavServer::ArmSpillSweep() {
  // Runs on loop 0. Re-arms itself each tick; the chain dies with the loop
  // on Shutdown. Sweeping at a quarter of the idle threshold keeps the
  // worst-case overshoot at ~25%.
  const int64_t period =
      std::max<int64_t>(options_.session.spill_after_ms / 4, 50);
  frontend_.loop(0)->AddTimer(period, [this] {
    if (frontend_.shutting_down()) return;
    if (!spill_sweep_inflight_.exchange(true)) {
      pool_.Submit([this] {
        sessions_.SpillIdle();
        spill_sweep_inflight_.store(false);
      });
    }
    ArmSpillSweep();
  });
}

int NavServer::DetachListener() {
  if (!frontend_.started() || frontend_.listen_fd() < 0) return -1;
  // F_DUPFD (not F_DUPFD_CLOEXEC): the whole point is surviving exec.
  return ::fcntl(frontend_.listen_fd(), F_DUPFD, 3);
}

void NavServer::Dispatch(const ConnPtr& conn, uint64_t seq,
                         std::string& payload, bool no_backlog) {
  const WireProto proto = conn->proto;  // Loop-thread state; read here.
  // Inline fast path: with no pipeline backlog, a request that cannot
  // stall the loop (parse error, or a QUERY whose artifacts are already
  // cached) executes on the reactor thread itself. That skips both
  // scheduler handoffs of the pool round-trip — on a saturated box they
  // dominate the latency of the warm interactive case the cache exists
  // to serve. With a backlog the parse itself moves to the pool.
  EventLoop* loop = frontend_.loop(conn->loop_index);
  auto run_on_pool = [&](auto handle) {
    int64_t decoded_us = SteadyNowUs();
    pool_.Submit([this, loop, conn, seq, decoded_us,
                  handle = std::move(handle)]() mutable {
      ReadToDispatchHistogram()->Record(SteadyNowUs() - decoded_us);
      WireFrame response = handle();
      loop->RunInLoop([this, conn, seq,
                       response = std::move(response)]() mutable {
        frontend_.Complete(conn, seq, std::move(response));
      });
    });
  };
  if (!no_backlog) {
    run_on_pool([this, proto, payload = std::move(payload)] {
      return HandleFrame(proto, payload);
    });
    return;
  }
  Request storage;  // Owns the decoded strings on the JSON path.
  RequestView view;
  std::string error_message;
  WireError parse_error =
      DecodeRequest(proto, payload, &storage, &view, &error_message);
  if (parse_error != WireError::kNone || FastPathEligible(view)) {
    ReadToDispatchHistogram()->Record(0);
    frontend_.Complete(
        conn, seq,
        parse_error != WireError::kNone
            ? HandleParseError(proto, parse_error, error_message)
            : HandleRequest(view, proto));
    return;
  }
  // Parsed once: the pool gets an owned copy of the request. The view
  // itself cannot travel, since its binary string fields point into
  // `payload`, whose bytes do not move with it when the string is short.
  run_on_pool([this, proto, request = ToOwnedRequest(std::move(view))] {
    return HandleRequest(MakeRequestView(request), proto);
  });
}

bool NavServer::FastPathEligible(const RequestView& request) const {
  if (request.op != RequestOp::kQuery) return false;
  // Contains() is false for entries still building (singleflight), so an
  // inline Open never waits behind a cold tree build. The probe can go
  // stale (eviction before Open), costing one inline cold build — the
  // race window is microseconds against an LRU/TTL horizon of minutes.
  const QueryArtifactCache* cache = sessions_.cache();
  return cache != nullptr && cache->Contains(NormalizeQueryKey(request.query));
}

WireFrame NavServer::HandleFrame(WireProto proto, const std::string& payload) {
  // Arena decode: a binary view's string fields point into `payload`,
  // which outlives the whole handler call.
  Request storage;
  RequestView view;
  std::string error_message;
  WireError error =
      DecodeRequest(proto, payload, &storage, &view, &error_message);
  if (error != WireError::kNone) {
    return HandleParseError(proto, error, error_message);
  }
  return HandleRequest(view, proto);
}

WireFrame NavServer::HandleParseError(WireProto proto, WireError error,
                                      const std::string& message) {
  frontend_.CountProtocolError();
  return WireResponse::Error(proto, error, message);
}

WireFrame NavServer::HandleRequest(const RequestView& request,
                                   WireProto proto) {
  TraceSpan span("server_op", OpLatencyHistogram(request.op));
  switch (request.op) {
    case RequestOp::kQuery: return HandleQuery(request, proto);
    case RequestOp::kExpand: return HandleExpand(request, proto);
    case RequestOp::kShowResults: return HandleShowResults(request, proto);
    case RequestOp::kBacktrack: return HandleBacktrack(request, proto);
    case RequestOp::kFind: return HandleFind(request, proto);
    case RequestOp::kView: return HandleView(request, proto);
    case RequestOp::kClose: return HandleClose(request, proto);
    case RequestOp::kStats: return HandleStats(request, proto);
    case RequestOp::kMetrics: return HandleMetrics(request, proto);
    case RequestOp::kBatchExpand: return HandleBatchExpand(request, proto);
    case RequestOp::kFetchArtifact:
      return HandleFetchArtifact(request, proto);
    case RequestOp::kTopology: return HandleTopology(request, proto);
  }
  return WireResponse::Error(proto, WireError::kInternal, "unhandled op");
}

namespace {

/// A SessionManager-level NotFound means the token is not live; op-level
/// statuses pass through with their own codes (see WithSession contract).
WireFrame SessionErrorFrame(WireProto proto, const Status& status) {
  if (status.code() == StatusCode::kNotFound) {
    return WireResponse::Error(proto, WireError::kUnknownSession,
                               status.message());
  }
  return WireResponse::Error(proto, WireErrorFromStatus(status),
                             status.message());
}

}  // namespace

WireFrame NavServer::HandleQuery(const RequestView& request, WireProto proto) {
  if (frontend_.shutting_down()) {
    return WireResponse::Error(proto, WireError::kShuttingDown,
                               "server is draining");
  }
  Result<SessionManager::CreateInfo> info =
      sessions_.CreateSession(std::string(request.query));
  if (!info.ok()) {
    return WireResponse::Error(proto, WireErrorFromStatus(info.status()),
                               info.status().message());
  }
  const SessionManager::CreateInfo& created = info.ValueOrDie();
  WireResponse response(proto, RequestOp::kQuery);
  response.AddString(WireField::kToken, created.token);
  if (created.cache_hit && created.artifacts != nullptr) {
    // Warm path: every session of a cached query answers with the same
    // (result_size, cached:true) suffix — rendered once per encoding on
    // the shared bundle, then served by reference forever after.
    std::shared_ptr<const std::string> payload =
        created.artifacts->templates.GetOrRender(
            "Q", static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddUInt(WireField::kResultSize, created.result_size)
                  .AddBool(WireField::kCached, true)
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddUInt(WireField::kResultSize, created.result_size)
      .AddBool(WireField::kCached, created.cache_hit)
      .Finish();
}

WireFrame NavServer::HandleExpand(const RequestView& request,
                                  WireProto proto) {
  std::vector<NavNodeId> revealed;
  std::shared_ptr<const QueryArtifacts> artifacts;
  std::string template_key;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        // Template eligibility must be probed before Expand mutates the
        // active tree: expanding a *visible* node whose component was
        // never split reveals a node set that is a pure function of the
        // shared artifacts (tree + cost model + shared strategy), so the
        // serialized reply is identical across sessions and cacheable.
        bool eligible = false;
        if (request.node >= 0 &&
            static_cast<size_t>(request.node) <
                session.navigation_tree().size()) {
          const ActiveTree& active = session.active_tree();
          if (active.IsVisible(request.node)) {
            eligible =
                active.ComponentIsIntact(active.ComponentOf(request.node));
          }
        }
        Result<std::vector<NavNodeId>> r = session.Expand(request.node);
        if (!r.ok()) return r.status();
        revealed = r.TakeValue();
        if (eligible) {
          artifacts = session.artifacts();
          template_key = "E|" + std::to_string(request.node);
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  WireResponse response(proto, RequestOp::kExpand);
  if (artifacts != nullptr) {
    std::shared_ptr<const std::string> payload =
        artifacts->templates.GetOrRender(
            template_key, static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddIntList(WireField::kRevealed, revealed)
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddIntList(WireField::kRevealed, revealed).Finish();
}

WireFrame NavServer::HandleBatchExpand(const RequestView& request,
                                       WireProto proto) {
  // Applies the cuts sequentially inside one session lock acquisition —
  // exactly what a client issuing the EXPANDs one by one would get, minus
  // the round trips. Per-node failures do not abort the batch: later nodes
  // may be independent components, and the per-node outcomes report what
  // happened. Each applied cut appends its own ExpandRecord, so snapshots
  // and replay see a BATCH_EXPAND exactly as the equivalent EXPAND chain.
  std::vector<NavNodeId> combined;
  std::string outcomes = "[";
  uint64_t applied = 0;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        for (size_t i = 0; i < request.nodes.size(); ++i) {
          NavNodeId node = request.nodes[i];
          if (i != 0) outcomes.push_back(',');
          Result<std::vector<NavNodeId>> r = session.Expand(node);
          if (r.ok()) {
            ++applied;
            const std::vector<NavNodeId>& revealed = r.ValueOrDie();
            // A revealed node stays visible for the rest of the batch, so
            // the concatenation is exactly the frontier the batch added —
            // no deduplication needed.
            outcomes += "{\"node\":" + std::to_string(node) +
                        ",\"ok\":true,\"revealed\":[";
            for (size_t k = 0; k < revealed.size(); ++k) {
              if (k != 0) outcomes.push_back(',');
              outcomes += std::to_string(revealed[k]);
            }
            outcomes += "]}";
            combined.insert(combined.end(), revealed.begin(), revealed.end());
          } else {
            outcomes += "{\"node\":" + std::to_string(node) +
                        ",\"ok\":false,\"error\":\"" +
                        WireErrorName(WireErrorFromStatus(r.status())) +
                        "\",\"message\":\"" +
                        JsonEscape(r.status().message()) + "\"}";
          }
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  outcomes.push_back(']');
  return WireResponse(proto, RequestOp::kBatchExpand)
      .AddUInt(WireField::kExpanded, applied)
      .AddIntList(WireField::kRevealed, combined)
      .AddRawJson(WireField::kResults, outcomes)
      .Finish();
}

WireFrame NavServer::HandleShowResults(const RequestView& request,
                                       WireProto proto) {
  std::vector<CitationSummary> summaries;
  std::shared_ptr<const QueryArtifacts> artifacts;
  std::string template_key;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        Result<std::vector<CitationSummary>> r = session.ShowResults(
            request.node, request.retstart, request.retmax);
        if (!r.ok()) return r.status();
        summaries = r.TakeValue();
        // Same intact-component gate as EXPAND: the citations attached
        // under a visible, never-split component are exactly its
        // navigation subtree's, and their ranking depends only on the
        // session query — which therefore joins the template key.
        if (request.node >= 0 &&
            static_cast<size_t>(request.node) <
                session.navigation_tree().size()) {
          const ActiveTree& active = session.active_tree();
          if (active.IsVisible(request.node) &&
              active.ComponentIsIntact(active.ComponentOf(request.node))) {
            artifacts = session.artifacts();
            template_key = "S|" + std::to_string(request.node) + "|" +
                           std::to_string(request.retstart) + "|" +
                           std::to_string(request.retmax) + "|" +
                           session.query();
          }
        }
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  WireResponse response(proto, RequestOp::kShowResults);
  if (artifacts != nullptr) {
    std::shared_ptr<const std::string> payload =
        artifacts->templates.GetOrRender(
            template_key, static_cast<int>(proto), [&] {
              return WirePayload(proto)
                  .AddUInt(WireField::kTotal, summaries.size())
                  .AddRawJson(WireField::kSummaries,
                              SummariesToJson(summaries))
                  .Finish();
            });
    return response.FinishWithPayload(std::move(payload));
  }
  return response.AddUInt(WireField::kTotal, summaries.size())
      .AddRawJson(WireField::kSummaries, SummariesToJson(summaries))
      .Finish();
}

WireFrame NavServer::HandleBacktrack(const RequestView& request,
                                     WireProto proto) {
  bool undone = false;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        undone = session.Backtrack();
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kBacktrack)
      .AddBool(WireField::kUndone, undone)
      .Finish();
}

WireFrame NavServer::HandleFind(const RequestView& request, WireProto proto) {
  bool found = false, visible = false;
  NavNodeId node = kInvalidNavNode, root = kInvalidNavNode;
  int distinct = 0;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        const NavigationTree& nav = session.navigation_tree();
        // The concept id is the client's: one outside the hierarchy is not
        // in the tree, rather than a failed CHECK in the lookup.
        if (request.concept_id < 0 ||
            static_cast<size_t>(request.concept_id) >=
                nav.hierarchy().size()) {
          return Status::OK();
        }
        node = nav.NodeOfConcept(request.concept_id);
        if (node == kInvalidNavNode) return Status::OK();
        found = true;
        const ActiveTree& active = session.active_tree();
        int comp = active.ComponentOf(node);
        visible = active.IsVisible(node);
        root = active.ComponentRoot(comp);
        distinct = active.ComponentDistinctCount(comp);
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kFind)
      .AddBool(WireField::kFound, found)
      .AddInt(WireField::kNode, static_cast<int64_t>(node))
      .AddBool(WireField::kVisible, visible)
      .AddInt(WireField::kComponentRoot, static_cast<int64_t>(root))
      .AddInt(WireField::kDistinct, static_cast<int64_t>(distinct))
      .Finish();
}

WireFrame NavServer::HandleView(const RequestView& request, WireProto proto) {
  std::string tree;
  Status status = sessions_.WithSession(
      request.token, [&](NavigationSession& session) -> Status {
        tree = VisualizationToJson(session.active_tree(), session.cost_model(),
                                   request.depth);
        return Status::OK();
      });
  if (!status.ok()) return SessionErrorFrame(proto, status);
  return WireResponse(proto, RequestOp::kView)
      .AddRawJson(WireField::kTree, tree)
      .Finish();
}

WireFrame NavServer::HandleClose(const RequestView& request, WireProto proto) {
  bool closed = sessions_.Close(request.token);
  if (!closed) {
    return WireResponse::Error(
        proto, WireError::kUnknownSession,
        "unknown session '" + std::string(request.token) + "'");
  }
  return WireResponse(proto, RequestOp::kClose)
      .AddBool(WireField::kClosed, true)
      .Finish();
}

WireFrame NavServer::HandleFetchArtifact(const RequestView& request,
                                         WireProto proto) {
  if (frontend_.shutting_down()) {
    return WireResponse::Error(proto, WireError::kShuttingDown,
                               "server is draining");
  }
  Result<std::shared_ptr<const QueryArtifacts>> artifacts =
      sessions_.ArtifactsForKey(std::string(request.query));
  if (!artifacts.ok()) {
    return WireResponse::Error(proto, WireErrorFromStatus(artifacts.status()),
                               artifacts.status().message());
  }
  // Base64 in both encodings: JSON strings cannot carry raw bytes, and one
  // representation keeps owner/replica wire responses oracle-identical.
  return WireResponse(proto, RequestOp::kFetchArtifact)
      .AddString(WireField::kArtifact,
                 Base64Encode(artifacts.ValueOrDie()->Serialize()))
      .Finish();
}

WireFrame NavServer::HandleTopology(const RequestView&, WireProto proto) {
  return WireResponse::Error(
      proto, WireError::kFailedPrecondition,
      "TOPOLOGY is answered by the routing tier, not a bare backend");
}

WireFrame NavServer::HandleStats(const RequestView&, WireProto proto) {
  NavServerStats s = stats();
  std::string sessions =
      "{\"active\":" + std::to_string(s.sessions.active) +
      ",\"created\":" + std::to_string(s.sessions.created) +
      ",\"evicted_lru\":" + std::to_string(s.sessions.evicted_lru) +
      ",\"expired_ttl\":" + std::to_string(s.sessions.expired_ttl) +
      ",\"closed\":" + std::to_string(s.sessions.closed) +
      ",\"operations\":" + std::to_string(s.sessions.operations) +
      ",\"spilled\":" + std::to_string(s.sessions.spilled) +
      ",\"restored\":" + std::to_string(s.sessions.restored) +
      ",\"restore_failed\":" + std::to_string(s.sessions.restore_failed) +
      ",\"spilled_now\":" + std::to_string(s.sessions.spilled_now) +
      ",\"resident_bytes\":" + std::to_string(s.sessions.resident_bytes) +
      "}";
  // Artifact-cache section: enabled:false (and zeros) when --cache=off, so
  // scrapers can rely on the section's presence either way.
  QueryArtifactCacheStats c;
  const QueryArtifactCache* cache = sessions_.cache();
  if (cache != nullptr) c = cache->stats();
  std::string cache_json =
      std::string("{\"enabled\":") + (cache != nullptr ? "true" : "false") +
      ",\"hits\":" + std::to_string(c.hits) +
      ",\"misses\":" + std::to_string(c.misses) +
      ",\"singleflight_waits\":" + std::to_string(c.singleflight_waits) +
      ",\"evicted_lru\":" + std::to_string(c.evicted_lru) +
      ",\"expired_ttl\":" + std::to_string(c.expired_ttl) +
      ",\"entries\":" + std::to_string(c.entries) +
      ",\"bytes\":" + std::to_string(c.bytes) +
      ",\"build_us_saved\":" + std::to_string(c.build_us_saved) +
      ",\"builds\":" + std::to_string(s.sessions.artifact_builds) +
      ",\"peer_fetch_hits\":" + std::to_string(s.sessions.peer_fetch_hits) +
      ",\"peer_fetch_misses\":" +
      std::to_string(s.sessions.peer_fetch_misses) + "}";
  // The exposition-sized payload has no hot-path template; both protocols
  // carry the identical JSON document (binary wraps it as a kWhole field).
  std::string line =
      ResponseBuilder(RequestOp::kStats)
          .Add("connections_accepted", s.connections_accepted)
          .Add("connections_shed", s.connections_shed)
          .Add("connections_open", s.connections_open)
          .Add("connections_idle_closed", s.connections_idle_closed)
          .Add("requests", s.requests)
          .Add("protocol_errors", s.protocol_errors)
          .Add("oversized_frames", s.oversized_frames)
          .Add("epoll_wakeups", s.epoll_wakeups)
          .Add("bytes_rx", s.bytes_rx)
          .Add("bytes_tx", s.bytes_tx)
          .Add("threads", pool_.num_threads())
          .Add("io_threads", static_cast<int64_t>(frontend_.num_loops()))
          .AddRaw("sessions", sessions)
          .AddRaw("cache", cache_json)
          .AddRaw("metrics", GlobalMetrics().ToJson())
          .Finish();
  return WrapWholeJson(proto, std::move(line));
}

WireFrame NavServer::HandleMetrics(const RequestView&, WireProto proto) {
  EpollWakeupsGauge()->Set(frontend_.stats().epoll_wakeups);
  // The exposition travels as one JSON string field; JsonEscape turns the
  // newlines into \n so the line protocol survives, and clients (or
  // `bionav_cli stats --prom`) unescape on print.
  std::string line =
      ResponseBuilder(RequestOp::kMetrics)
          .Add("text", std::string_view(GlobalMetrics().ToPrometheusText()))
          .Finish();
  return WrapWholeJson(proto, std::move(line));
}

NavServerStats NavServer::stats() const {
  FrontendStats f = frontend_.stats();
  NavServerStats s;
  s.connections_accepted = f.connections_accepted;
  s.connections_shed = f.connections_shed;
  s.connections_open = f.connections_open;
  s.connections_idle_closed = f.connections_idle_closed;
  s.requests = f.requests;
  s.protocol_errors = f.protocol_errors;
  s.oversized_frames = f.oversized_frames;
  s.epoll_wakeups = f.epoll_wakeups;
  s.bytes_rx = f.bytes_rx;
  s.bytes_tx = f.bytes_tx;
  // Pull-refreshed at exposition: STATS/METRICS are exactly when the value
  // is read, so the reactor threads never spend a timer keeping it warm.
  EpollWakeupsGauge()->Set(s.epoll_wakeups);
  s.sessions = sessions_.stats();
  return s;
}

void NavServer::Shutdown() {
  // Dispatched requests finish on the pool while the loops still run, so
  // their completions flush before the drain deadline starts counting.
  frontend_.Shutdown(/*settle=*/[this] { pool_.Wait(); },
                     /*teardown_loop=*/{});
}

NavServer::~NavServer() { Shutdown(); }

}  // namespace bionav
