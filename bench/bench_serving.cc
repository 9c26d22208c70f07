// Closed-loop load generator for the navigation service (bionav::server):
// starts a NavServer on loopback over the shared bench workload and drives
// it with N client threads, each running M complete navigation sessions
// over its own TCP connection. A session is the full oracle protocol —
// QUERY, then FIND/EXPAND until the target concept is visible, then
// SHOWRESULTS and CLOSE — so every layer (wire protocol, session manager,
// query-artifact cache, thread pool, EXPAND hot path) is on the measured
// path.
//
// Query traffic is shaped like PubMed's: a fixed universe of
// --distinct-queries variants sampled per session from a seeded Zipf(s)
// popularity distribution (--zipf-s; 0 = uniform round-robin). Head
// queries repeat heavily, so with the server's artifact cache on
// (default), most QUERYs are warm hits that skip navigation-tree
// construction; --cache=off serves every QUERY cold for A/B comparison.
//
// Reports client-observed latency percentiles (p50/p95/p99) per operation
// — QUERY is split into cold (built the tree) and warm (served from the
// cache) via the response's `cached` field, since the two differ by
// orders of magnitude and one distribution would bury both tails — next
// to the server-side percentiles scraped from the STATS metrics registry,
// plus end-to-end sessions/sec and the server's cache hit rate. Verifies
// that no session below the admission limit is shed (RETRY_LATER) or
// dropped.
//
// Two load models:
//   closed loop (default): --clients blocking threads, one strict
//     request/response session at a time each — measures latency under
//     bounded concurrency.
//   open loop (--open-loop / --connections=N): N concurrent connections
//     driven as non-blocking state machines by one client-side EventLoop —
//     the connection-scaling sweep for the event-driven server. Verifies
//     the reactor sustains N concurrent clients with zero transport errors.
//
// Flags: --threads=N (server worker threads), --io-threads=N (server
// reactor threads), --clients=N (closed-loop load threads, default 4),
// --connections=N (open-loop concurrent connections; implies --open-loop),
// --open-loop (default 64 connections), --sessions=M (sessions per
// client/connection, default 8), --distinct-queries=D (query universe;
// 0 = the raw workload queries), --zipf-s=S (popularity skew, default 0 =
// round-robin), --proto=json|binary (wire encoding; binary negotiates the
// length-prefixed v2 protocol and is the A/B lever for bytes/request),
// --cache=off, --warmup=N (discarded sessions per client before the
// measured phase; closed loop only), --json=PATH, --obs=off (disable
// server-side trace spans).
//
// Behavioral load (closed loop only): --archetype=finder|browser|
// backtracker shapes each session like a user population instead of the
// pure protocol oracle — finder drills straight to the target, browser
// wanders (random result-page peeks between reveals), backtracker drills
// down and then retraces every EXPAND with BACKTRACK. --think-ms=M pauses
// a uniform 0.5-1.5x M between operations; --abandon-p=P leaves sessions
// open without CLOSE with probability P (the server's TTL/spill tier owns
// them — which is the point). --tolerate-retry-later turns the typed
// RETRY_LATER/SHUTTING_DOWN shed window into a bounded backoff-and-retry
// instead of a failure, for soaks that restart backends under load.
// --batch-expand (browser only) coalesces each step's expansions into one
// BATCH_EXPAND round trip of up to 4 frontier nodes, for A/B-ing the
// batched op's latency against repeated single EXPANDs.
//
// Durability check (drives an external --target, e.g. a bionav_route
// fleet over spill-enabled backends): --park=N --park-file=PATH opens N
// sessions, navigates a few steps, records each session's token and VIEW
// response as JSON lines, and leaves them open. A later run with
// --verify-parked=PATH replays VIEW for every recorded token and demands
// a byte-identical response — the wire-level oracle that snapshot /
// restore preserved navigation state exactly — then scrapes the
// bionav_session_restore_us p99 into the --json record
// (--stats-target=HOST:PORT points the scrape at a specific backend when
// the main target is a router, whose STATS lacks backend histograms).
//
// Sharded-tier modes: --backends=N stands up N in-process NavServer shards
// behind a NavRouter and drives the router endpoint (per-backend request
// counts and an aggregate p99 land in --json); --target=HOST:PORT skips
// the in-process tier entirely and drives an external endpoint, e.g. a
// `bionav_route --backends=auto:N` fleet started out of band.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/event_loop.h"

using namespace bionav;
using namespace bionav::bench;

namespace {

/// Client-observed latencies, one distribution per operation class. QUERY
/// (cold vs warm) and EXPAND are the paper-relevant ops;
/// FIND/SHOWRESULTS/CLOSE land in `other` (kept out of the headline
/// distributions).
struct OpLatencies {
  std::vector<double> query_cold_ms;
  std::vector<double> query_warm_ms;
  std::vector<double> expand_ms;
  std::vector<double> other_ms;

  void MergeFrom(const OpLatencies& o) {
    query_cold_ms.insert(query_cold_ms.end(), o.query_cold_ms.begin(),
                         o.query_cold_ms.end());
    query_warm_ms.insert(query_warm_ms.end(), o.query_warm_ms.begin(),
                         o.query_warm_ms.end());
    expand_ms.insert(expand_ms.end(), o.expand_ms.begin(), o.expand_ms.end());
    other_ms.insert(other_ms.end(), o.other_ms.begin(), o.other_ms.end());
  }
};

struct ClientResult {
  int sessions_done = 0;
  int sessions_failed = 0;
  int retry_later = 0;
  /// Routed mode only: requests a backend answered directly vs relayed
  /// through the proxy.
  int64_t direct_calls = 0;
  int64_t proxied_calls = 0;
  /// Sessions deliberately left open (no CLOSE) by --abandon-p.
  int sessions_parked = 0;
  /// Shed responses absorbed by --tolerate-retry-later's bounded retry
  /// (each one re-ran the session; not counted as shed or failed).
  int shed_retries = 0;
  OpLatencies latencies;
  std::string first_error;
};

// ---------------------------------------------------------------------------
// Behavioral archetypes (closed loop): --archetype shapes each session
// like a user population instead of the pure protocol oracle, with think
// times between operations and optional abandonment. The open-loop state
// machine stays oracle-only — it measures the reactor, not the users.
// ---------------------------------------------------------------------------

enum class Archetype { kFinder, kBrowser, kBacktracker };

const char* ArchetypeName(Archetype archetype) {
  switch (archetype) {
    case Archetype::kFinder:
      return "finder";
    case Archetype::kBrowser:
      return "browser";
    case Archetype::kBacktracker:
      return "backtracker";
  }
  return "?";
}

/// Knobs shaping closed-loop session behavior, shared by every client.
struct LoadProfile {
  Archetype archetype = Archetype::kFinder;
  /// Mean pause between operations in ms; each pause draws uniform
  /// 0.5-1.5x the mean. 0 disables thinking entirely.
  double think_ms = 0;
  /// Probability a finished session is parked open instead of CLOSEd.
  double abandon_p = 0;
  /// Treat RETRY_LATER/SHUTTING_DOWN as a bounded backoff-and-retry (the
  /// expected window while a backend warm-restarts) instead of a failure.
  bool tolerate_retry_later = false;
  /// Browser archetype only: coalesce each step's expansions into one
  /// BATCH_EXPAND round trip (up to 4 nodes) instead of a single EXPAND.
  bool batch_expand = false;
};

void Think(const LoadProfile& profile, Rng& rng) {
  if (profile.think_ms <= 0) return;
  double ms = profile.think_ms * (0.5 + rng.UniformDouble());
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
}

/// The typed shed window: admission control (RETRY_LATER) or a draining /
/// warm-restarting server (SHUTTING_DOWN).
bool IsShedStatus(const Status& status) {
  return status.message().find("RETRY_LATER") != std::string::npos ||
         status.message().find("SHUTTING_DOWN") != std::string::npos;
}

/// Abandon-or-CLOSE epilogue shared by the archetypes. A parked session
/// is left open on the server — its TTL or spill tier owns it now.
/// Client is NavClient or RoutedNavClient (same typed-op surface).
template <typename Client>
Status FinishSession(Client& client, const std::string& token,
                     const LoadProfile& profile, Rng& rng,
                     OpLatencies* latencies, bool* parked) {
  if (profile.abandon_p > 0 && rng.Bernoulli(profile.abandon_p)) {
    *parked = true;
    return Status::OK();
  }
  Timer timer;
  timer.Restart();
  Status closed = client.CloseSession(token);
  latencies->other_ms.push_back(timer.ElapsedMillis());
  return closed;
}

/// One entry of the query universe the generator samples from. Variants
/// beyond the workload's distinct keywords repeat the keyword — the
/// inverted index intersects postings, so "kw kw" matches exactly what
/// "kw" does while being a distinct cache key (and wire query).
struct QueryVariant {
  std::string query;
  ConceptId target = kInvalidConcept;
};

std::vector<QueryVariant> BuildQueryUniverse(const Workload& w,
                                             int distinct_queries) {
  std::vector<QueryVariant> universe;
  size_t count = distinct_queries > 0 ? static_cast<size_t>(distinct_queries)
                                      : w.num_queries();
  universe.reserve(count);
  for (size_t d = 0; d < count; ++d) {
    const GeneratedQuery& q = w.query(d % w.num_queries());
    size_t repetitions = d / w.num_queries() + 1;
    QueryVariant v;
    v.target = q.target;
    for (size_t r = 0; r < repetitions; ++r) {
      if (r > 0) v.query.push_back(' ');
      v.query += q.spec.keyword;
    }
    universe.push_back(std::move(v));
  }
  return universe;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size() - 1));
  return (*sorted)[idx];
}

/// QUERY + cold/warm latency classification; returns the session token.
template <typename Client>
Result<std::string> OpenSession(Client& client, const QueryVariant& variant,
                                OpLatencies* latencies) {
  Timer timer;
  timer.Restart();
  auto opened = client.Query(variant.query);
  double query_ms = timer.ElapsedMillis();
  if (!opened.ok()) return opened.status();
  (opened.ValueOrDie().cached ? latencies->query_warm_ms
                              : latencies->query_cold_ms)
      .push_back(query_ms);
  return opened.ValueOrDie().token;
}

/// Finder archetype — the full protocol oracle: QUERY, then FIND/EXPAND
/// the target's component until it is visible, SHOWRESULTS, CLOSE (or
/// abandon); appends per-request latencies to the matching per-op
/// distribution.
template <typename Client>
Status RunFinderSession(Client& client, const QueryVariant& variant,
                        const LoadProfile& profile, Rng& rng,
                        OpLatencies* latencies, bool* parked) {
  Timer timer;
  auto timed = [&](std::vector<double>* bucket, auto&& call) {
    timer.Restart();
    auto result = call();
    bucket->push_back(timer.ElapsedMillis());
    return result;
  };

  auto opened = OpenSession(client, variant, latencies);
  if (!opened.ok()) return opened.status();
  const std::string token = opened.ValueOrDie();

  // Oracle navigation: expand the target's component until it is visible.
  // The 64-iteration cap only guards against a protocol bug looping.
  NavNodeId target_node = kInvalidNavNode;
  for (int step = 0; step < 64; ++step) {
    Think(profile, rng);
    auto found = timed(&latencies->other_ms,
                       [&] { return client.Find(token, variant.target); });
    if (!found.ok()) return found.status();
    const NavClient::FindReply& f = found.ValueOrDie();
    if (!f.found) break;  // Target not in this result — nothing to reach.
    target_node = f.node;
    if (f.visible) break;
    auto revealed = timed(&latencies->expand_ms, [&] {
      return client.Expand(token, f.component_root);
    });
    if (!revealed.ok()) return revealed.status();
  }

  if (target_node != kInvalidNavNode) {
    auto shown = timed(&latencies->other_ms, [&] {
      return client.ShowResults(token, target_node, 0, 20);
    });
    if (!shown.ok()) return shown.status();
  }
  return FinishSession(client, token, profile, rng, latencies, parked);
}

/// Collects every node id marked expandable in a VIEW tree document.
void CollectExpandable(const JsonValue& node, std::vector<NavNodeId>* out) {
  if (!node.is_object()) return;
  if (node.BoolOr("expandable", false)) {
    NavNodeId id = static_cast<NavNodeId>(node.IntOr("node", kInvalidNavNode));
    if (id != kInvalidNavNode) out->push_back(id);
  }
  if (const JsonValue* children = node.Find("children");
      children != nullptr && children->is_array()) {
    for (const JsonValue& child : children->array_items()) {
      CollectExpandable(child, out);
    }
  }
}

/// Browser archetype — a wandering user with no destination: VIEWs the
/// tree, expands a random expandable node, peeks at a result page of a
/// freshly-revealed node, and repeats a few times. Driven entirely by
/// what the wire shows (no oracle target id), so it behaves identically
/// against an external fleet whose concept ids differ from this
/// process's in-memory workload.
template <typename Client>
Status RunBrowserSession(Client& client, const QueryVariant& variant,
                         const LoadProfile& profile, Rng& rng,
                         OpLatencies* latencies, bool* parked) {
  Timer timer;
  auto timed = [&](std::vector<double>* bucket, auto&& call) {
    timer.Restart();
    auto result = call();
    bucket->push_back(timer.ElapsedMillis());
    return result;
  };

  auto opened = OpenSession(client, variant, latencies);
  if (!opened.ok()) return opened.status();
  const std::string token = opened.ValueOrDie();

  int steps = static_cast<int>(rng.UniformInt(2, 6));
  for (int step = 0; step < steps; ++step) {
    Think(profile, rng);
    auto viewed =
        timed(&latencies->other_ms, [&] { return client.View(token); });
    if (!viewed.ok()) return viewed.status();
    auto tree = ParseJson(viewed.ValueOrDie());
    if (!tree.ok()) return Status::Internal("malformed VIEW response");
    std::vector<NavNodeId> expandable;
    CollectExpandable(tree.ValueOrDie(), &expandable);
    if (expandable.empty()) break;  // Fully revealed — nothing left to do.
    std::vector<NavNodeId> nodes;
    if (profile.batch_expand) {
      // One BATCH_EXPAND round trip covering several frontier nodes: a
      // random starting offset and stride over the expandable list, so
      // the batch spreads across the tree like repeated single EXPANDs.
      std::vector<NavNodeId> picks;
      size_t want = std::min<size_t>(4, expandable.size());
      size_t start = rng.Uniform(expandable.size());
      for (size_t k = 0; k < want; ++k) {
        picks.push_back(
            expandable[(start + k * expandable.size() / want) %
                       expandable.size()]);
      }
      auto batched = timed(&latencies->expand_ms,
                           [&] { return client.ExpandMany(token, picks); });
      if (!batched.ok()) return batched.status();
      nodes = batched.ValueOrDie().revealed;
    } else {
      NavNodeId pick = expandable[rng.Uniform(expandable.size())];
      auto revealed = timed(&latencies->expand_ms,
                            [&] { return client.Expand(token, pick); });
      if (!revealed.ok()) return revealed.status();
      nodes = revealed.ValueOrDie();
    }
    if (!nodes.empty()) {
      NavNodeId peek = nodes[rng.Uniform(nodes.size())];
      auto shown = timed(&latencies->other_ms,
                         [&] { return client.ShowResults(token, peek, 0, 5); });
      if (!shown.ok()) return shown.status();
    }
  }
  return FinishSession(client, token, profile, rng, latencies, parked);
}

/// Backtracker archetype — drills to the target like the finder, then
/// retraces every EXPAND with BACKTRACK before closing. Exercises the
/// history stack, and (against a spill-enabled server) backtracking
/// through replayed history on a restored session.
template <typename Client>
Status RunBacktrackerSession(Client& client, const QueryVariant& variant,
                             const LoadProfile& profile, Rng& rng,
                             OpLatencies* latencies, bool* parked) {
  Timer timer;
  auto timed = [&](std::vector<double>* bucket, auto&& call) {
    timer.Restart();
    auto result = call();
    bucket->push_back(timer.ElapsedMillis());
    return result;
  };

  auto opened = OpenSession(client, variant, latencies);
  if (!opened.ok()) return opened.status();
  const std::string token = opened.ValueOrDie();

  int expands = 0;
  for (int step = 0; step < 64; ++step) {
    Think(profile, rng);
    auto found = timed(&latencies->other_ms,
                       [&] { return client.Find(token, variant.target); });
    if (!found.ok()) return found.status();
    const NavClient::FindReply& f = found.ValueOrDie();
    if (!f.found || f.visible) break;
    auto revealed = timed(&latencies->expand_ms, [&] {
      return client.Expand(token, f.component_root);
    });
    if (!revealed.ok()) return revealed.status();
    ++expands;
  }
  for (int back = 0; back < expands; ++back) {
    Think(profile, rng);
    auto popped = timed(&latencies->other_ms,
                        [&] { return client.Backtrack(token); });
    if (!popped.ok()) return popped.status();
    if (!popped.ValueOrDie()) {
      return Status::Internal("BACKTRACK ran out of history early");
    }
  }
  return FinishSession(client, token, profile, rng, latencies, parked);
}

template <typename Client>
Status RunArchetypeSession(Client& client, const QueryVariant& variant,
                           const LoadProfile& profile, Rng& rng,
                           OpLatencies* latencies, bool* parked) {
  switch (profile.archetype) {
    case Archetype::kFinder:
      return RunFinderSession(client, variant, profile, rng, latencies, parked);
    case Archetype::kBrowser:
      return RunBrowserSession(client, variant, profile, rng, latencies,
                               parked);
    case Archetype::kBacktracker:
      return RunBacktrackerSession(client, variant, profile, rng, latencies,
                                   parked);
  }
  return Status::InvalidArgument("unknown archetype");
}

/// Dials the endpoint as either client flavor: a plain NavClient speaks
/// to whatever answers (server or proxy); a RoutedNavClient additionally
/// learns the ring from a router endpoint and goes shard-direct.
template <typename Client>
Result<std::unique_ptr<Client>> DialClient(const std::string& host, int port,
                                           const NavClientOptions& options) {
  if constexpr (std::is_same_v<Client, RoutedNavClient>) {
    RoutedNavClientOptions routed_options;
    routed_options.client = options;
    return RoutedNavClient::Connect(host, port, routed_options);
  } else {
    return NavClient::Connect(host, port, options);
  }
}

/// Routed clients report their direct/proxied split; plain ones have none.
void HarvestRouting(const NavClient&, ClientResult*) {}
void HarvestRouting(const RoutedNavClient& client, ClientResult* r) {
  r->direct_calls += client.direct_calls();
  r->proxied_calls += client.proxied_calls();
}

/// Runs `sessions` archetype sessions on one connection; results
/// (including failures) accumulate into `r`. `phase_salt` decorrelates
/// the warmup RNG stream from the measured one.
template <typename Client>
void RunClient(const std::vector<QueryVariant>& universe, double zipf_s,
               int client_index, uint64_t phase_salt, int sessions,
               const std::string& host, int port, WireProto proto,
               const LoadProfile& profile, ClientResult* r) {
  NavClientOptions client_options;
  client_options.proto = proto;
  // Under --tolerate-retry-later a backend may be mid-exec when we
  // (re)connect; ride the listen-backlog window out.
  if (profile.tolerate_retry_later) client_options.connect_retries = 10;
  auto connected = DialClient<Client>(host, port, client_options);
  if (!connected.ok()) {
    r->first_error = connected.status().ToString();
    r->sessions_failed += sessions;
    return;
  }
  std::unique_ptr<Client> client = std::move(connected.ValueOrDie());
  // Seeded per client (and phase): runs are reproducible, clients draw
  // decorrelated Zipf streams.
  Rng rng(0x9e3779b97f4a7c15ULL ^ phase_salt ^
          static_cast<uint64_t>(client_index));
  for (int s = 0; s < sessions; ++s) {
    size_t vi;
    if (zipf_s > 0) {
      vi = rng.Zipf(universe.size(), zipf_s);
    } else {
      vi = static_cast<size_t>(client_index * sessions + s) % universe.size();
    }
    bool parked = false;
    Status status = RunArchetypeSession(*client, universe[vi], profile, rng,
                                        &r->latencies, &parked);
    // Bounded shed tolerance: back off, reconnect (the old connection may
    // have been drained away under us) and re-run the whole session. Only
    // a session still shed after every retry counts as failed.
    for (int attempt = 0;
         !status.ok() && profile.tolerate_retry_later &&
         IsShedStatus(status) && attempt < 20;
         ++attempt) {
      ++r->shed_retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      auto reconnected = DialClient<Client>(host, port, client_options);
      if (!reconnected.ok()) {
        status = reconnected.status();
        continue;
      }
      HarvestRouting(*client, r);
      client = std::move(reconnected.ValueOrDie());
      parked = false;
      status = RunArchetypeSession(*client, universe[vi], profile, rng,
                                   &r->latencies, &parked);
    }
    if (status.ok()) {
      ++r->sessions_done;
      if (parked) ++r->sessions_parked;
    } else {
      ++r->sessions_failed;
      if (status.message().find("RETRY_LATER") != std::string::npos) {
        ++r->retry_later;
      }
      if (r->first_error.empty()) r->first_error = status.ToString();
    }
  }
  HarvestRouting(*client, r);
}

// ---------------------------------------------------------------------------
// Open-loop mode: every connection is a self-driving oracle state machine
// on one client-side EventLoop — N of them run concurrently against the
// server, strict request/response within a connection (the measured unit
// is one round trip; pipelining depth is the server tests' concern).
// ---------------------------------------------------------------------------

struct OpenLoopTotals {
  int sessions_done = 0;
  int sessions_failed = 0;
  int transport_errors = 0;
  int shed = 0;
  OpLatencies latencies;
  std::string first_error;
};

class OpenLoopHarness {
 public:
  OpenLoopHarness(std::string host, int port,
                  const std::vector<QueryVariant>& universe, double zipf_s,
                  WireProto proto, int connections, int sessions_per_conn)
      : host_(std::move(host)),
        port_(port),
        universe_(universe),
        zipf_s_(zipf_s),
        proto_(proto) {
    conns_.reserve(static_cast<size_t>(connections));
    for (int i = 0; i < connections; ++i) {
      auto conn = std::make_unique<Conn>();
      conn->index = i;
      conn->sessions_left = sessions_per_conn;
      conn->rng = Rng(0xb5297a4d3f84c2e1ULL ^ static_cast<uint64_t>(i));
      conns_.push_back(std::move(conn));
    }
  }

  OpenLoopTotals Run() {
    for (std::unique_ptr<Conn>& conn : conns_) StartConnect(conn.get());
    if (active_ > 0) loop_.Run();
    return std::move(totals_);
  }

 private:
  enum class Wait { kConnect, kQuery, kFind, kExpand, kShow, kClose };

  struct Conn {
    int index = 0;
    int fd = -1;
    Wait wait = Wait::kConnect;
    LineFrameDecoder decoder{8u << 20};
    BinaryFrameDecoder bdecoder{8u << 20};
    std::string outbox;
    size_t out_off = 0;
    std::string token;
    const QueryVariant* variant = nullptr;
    NavNodeId target_node = kInvalidNavNode;
    int nav_steps = 0;
    int sessions_left = 0;
    Timer op_timer;
    Rng rng{0};
  };

  void StartConnect(Conn* c) {
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr);
    if (c->fd < 0 ||
        (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
             0 &&
         errno != EINPROGRESS)) {
      RecordTransportError(c, std::string("connect: ") + std::strerror(errno));
      totals_.sessions_failed += c->sessions_left;
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
      return;
    }
    ++active_;
    loop_.Add(c->fd, EventLoop::kWritable,
              [this, c](uint32_t events) { OnEvent(c, events); });
  }

  void OnEvent(Conn* c, uint32_t events) {
    if (c->fd < 0) return;
    if (events & EventLoop::kError) {
      TransportError(c, "socket error");
      return;
    }
    if (events & EventLoop::kWritable) {
      if (c->wait == Wait::kConnect) {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) {
          TransportError(c, std::string("connect: ") + std::strerror(soerr));
          return;
        }
        int one = 1;
        ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // Binary mode: the negotiation preamble rides in front of the
        // first QUERY — one coalesced send.
        if (proto_ == WireProto::kBinary) {
          c->outbox.append(kBinaryPreamble, sizeof(kBinaryPreamble));
        }
        StartSession(c);
      } else {
        FlushOut(c);
      }
      if (c->fd < 0) return;
    }
    if (events & EventLoop::kReadable) ReadInput(c);
  }

  void StartSession(Conn* c) {
    if (c->sessions_left == 0) {
      Finish(c, /*abandoned_sessions=*/0);
      return;
    }
    --c->sessions_left;
    size_t vi =
        zipf_s_ > 0
            ? c->rng.Zipf(universe_.size(), zipf_s_)
            : (static_cast<size_t>(c->index) + session_serial_++) %
                  universe_.size();
    c->variant = &universe_[vi];
    c->target_node = kInvalidNavNode;
    c->nav_steps = 0;
    Request query;
    query.op = RequestOp::kQuery;
    query.query = c->variant->query;
    SendRequest(c, query, Wait::kQuery);
  }

  void SendRequest(Conn* c, const Request& request, Wait wait) {
    c->outbox += EncodeRequestFrame(proto_, request);
    c->wait = wait;
    c->op_timer.Restart();
    FlushOut(c);
  }

  void FlushOut(Conn* c) {
    while (c->out_off < c->outbox.size()) {
      ssize_t n = ::send(c->fd, c->outbox.data() + c->out_off,
                         c->outbox.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      TransportError(c, "send failed");
      return;
    }
    if (c->out_off >= c->outbox.size()) {
      c->outbox.clear();
      c->out_off = 0;
    }
    loop_.Modify(c->fd, EventLoop::kReadable |
                            (c->outbox.empty() ? 0u : EventLoop::kWritable));
  }

  void ReadInput(Conn* c) {
    char chunk[16384];
    while (true) {
      ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        std::string_view data(chunk, static_cast<size_t>(n));
        bool fed = proto_ == WireProto::kBinary ? c->bdecoder.Feed(data)
                                                : c->decoder.Feed(data);
        if (!fed) {
          TransportError(c, "response frame overflow");
          return;
        }
        continue;
      }
      if (n == 0) {
        TransportError(c, "server closed connection");
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      TransportError(c, std::string("recv: ") + std::strerror(errno));
      return;
    }
    if (proto_ == WireProto::kBinary) {
      std::string body;
      while (c->fd >= 0 && c->bdecoder.Next(&body)) HandleBinaryFrame(c, body);
      if (c->fd >= 0 && c->bdecoder.broken()) {
        TransportError(c, "malformed binary response frame");
      }
      return;
    }
    std::string line;
    while (c->fd >= 0 && c->decoder.Next(&line)) HandleLine(c, line);
  }

  void HandleBinaryFrame(Conn* c, const std::string& body) {
    double elapsed_ms = c->op_timer.ElapsedMillis();
    Result<JsonValue> decoded = DecodeBinaryResponse(body);
    if (!decoded.ok()) {
      TransportError(c, "malformed binary response from server");
      return;
    }
    HandleDoc(c, decoded.ValueOrDie(), elapsed_ms);
  }

  void HandleLine(Conn* c, const std::string& line) {
    double elapsed_ms = c->op_timer.ElapsedMillis();
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok() || !parsed.ValueOrDie().is_object()) {
      TransportError(c, "malformed response from server");
      return;
    }
    HandleDoc(c, parsed.ValueOrDie(), elapsed_ms);
  }

  void HandleDoc(Conn* c, const JsonValue& doc, double elapsed_ms) {
    if (!doc.BoolOr("ok", false)) {
      std::string error = doc.StringOr("error", "INTERNAL");
      if (error == "RETRY_LATER" || error == "SHUTTING_DOWN") {
        ++totals_.shed;
      } else {
        ++totals_.sessions_failed;
        if (totals_.first_error.empty()) {
          totals_.first_error = error + ": " + doc.StringOr("message", "");
        }
      }
      Finish(c, c->sessions_left + 1);
      return;
    }
    switch (c->wait) {
      case Wait::kQuery: {
        (doc.BoolOr("cached", false) ? totals_.latencies.query_warm_ms
                                     : totals_.latencies.query_cold_ms)
            .push_back(elapsed_ms);
        c->token = doc.StringOr("token", "");
        SendFind(c);
        break;
      }
      case Wait::kFind: {
        totals_.latencies.other_ms.push_back(elapsed_ms);
        bool found = doc.BoolOr("found", false);
        if (found) {
          c->target_node =
              static_cast<NavNodeId>(doc.IntOr("node", kInvalidNavNode));
        }
        if (found && !doc.BoolOr("visible", false) && c->nav_steps < 64) {
          Request expand;
          expand.op = RequestOp::kExpand;
          expand.token = c->token;
          expand.node = static_cast<NavNodeId>(
              doc.IntOr("component_root", kInvalidNavNode));
          SendRequest(c, expand, Wait::kExpand);
        } else if (c->target_node != kInvalidNavNode) {
          Request show;
          show.op = RequestOp::kShowResults;
          show.token = c->token;
          show.node = c->target_node;
          show.retstart = 0;
          show.retmax = 20;
          SendRequest(c, show, Wait::kShow);
        } else {
          SendClose(c);
        }
        break;
      }
      case Wait::kExpand: {
        totals_.latencies.expand_ms.push_back(elapsed_ms);
        ++c->nav_steps;
        SendFind(c);
        break;
      }
      case Wait::kShow:
        totals_.latencies.other_ms.push_back(elapsed_ms);
        SendClose(c);
        break;
      case Wait::kClose:
        totals_.latencies.other_ms.push_back(elapsed_ms);
        ++totals_.sessions_done;
        StartSession(c);
        break;
      case Wait::kConnect:
        TransportError(c, "response before any request");
        break;
    }
  }

  void SendFind(Conn* c) {
    Request find;
    find.op = RequestOp::kFind;
    find.token = c->token;
    find.concept_id = c->variant->target;
    SendRequest(c, find, Wait::kFind);
  }

  void SendClose(Conn* c) {
    Request close_request;
    close_request.op = RequestOp::kClose;
    close_request.token = c->token;
    SendRequest(c, close_request, Wait::kClose);
  }

  void RecordTransportError(Conn* c, const std::string& message) {
    ++totals_.transport_errors;
    if (totals_.first_error.empty()) {
      totals_.first_error =
          "conn " + std::to_string(c->index) + ": " + message;
    }
  }

  void TransportError(Conn* c, const std::string& message) {
    RecordTransportError(c, message);
    Finish(c, c->sessions_left + (c->wait == Wait::kConnect ? 0 : 1));
  }

  /// Unregisters and closes the connection; `abandoned_sessions` sessions
  /// (the in-progress one plus never-started ones) count as failed.
  void Finish(Conn* c, int abandoned_sessions) {
    if (c->fd < 0) return;
    loop_.Remove(c->fd);
    ::close(c->fd);
    c->fd = -1;
    totals_.sessions_failed += abandoned_sessions;
    if (--active_ == 0) loop_.Stop();
  }

  EventLoop loop_{10};
  const std::string host_;
  const int port_;
  const std::vector<QueryVariant>& universe_;
  const double zipf_s_;
  const WireProto proto_;
  std::vector<std::unique_ptr<Conn>> conns_;
  OpenLoopTotals totals_;
  int active_ = 0;
  size_t session_serial_ = 0;  // Round-robin stream when zipf_s == 0.
};

/// Server-side p99 for one op, read from the STATS metrics registry
/// (microseconds -> ms); negative when the histogram is absent.
double ServerP99Ms(const JsonValue& stats, const std::string& histogram) {
  const JsonValue* metrics = stats.Find("metrics");
  if (metrics == nullptr) return -1;
  const JsonValue* histograms = metrics->Find("histograms");
  if (histograms == nullptr) return -1;
  const JsonValue* h = histograms->Find(histogram);
  if (h == nullptr) return -1;
  return h->NumberOr("p99_us", -1000.0) / 1000.0;
}

bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  size_t colon = spec.rfind(':');
  int64_t parsed = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64(spec.substr(colon + 1), &parsed) || parsed <= 0 ||
      parsed > 65535) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = static_cast<int>(parsed);
  return true;
}

// ---------------------------------------------------------------------------
// Durability check: park sessions (leave them open, record their VIEW
// responses) and, in a later invocation — typically after the backend was
// killed or warm-restarted onto its spill directory — verify every parked
// token still answers VIEW byte-identically. The VIEW response renders
// the whole active tree, so byte equality is the wire-level oracle that
// snapshot/restore preserved navigation state exactly.
// ---------------------------------------------------------------------------

/// Opens `count` sessions against host:port, navigates a couple of oracle
/// steps each (so the snapshots carry replay state), appends one JSON
/// line {token, query, view} per session to `path`, and leaves every
/// session open.
int ParkSessions(const std::string& host, int port, WireProto proto,
                 const std::vector<QueryVariant>& universe, int count,
                 const std::string& path) {
  NavClientOptions options;
  options.proto = proto;
  auto connected = NavClient::Connect(host, port, options);
  if (!connected.ok()) {
    std::cerr << "park: " << connected.status().ToString() << "\n";
    return 1;
  }
  NavClient& client = *connected.ValueOrDie();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "park: cannot write " << path << "\n";
    return 1;
  }
  for (int i = 0; i < count; ++i) {
    const QueryVariant& variant = universe[static_cast<size_t>(i) %
                                           universe.size()];
    auto opened = client.Query(variant.query);
    if (!opened.ok()) {
      std::cerr << "park: QUERY failed: " << opened.status().ToString()
                << "\n";
      return 1;
    }
    const std::string token = opened.ValueOrDie().token;
    // Two VIEW-driven reveals (first expandable node each time, so the
    // walk is deterministic): the snapshot a spill tier takes of this
    // session carries real replay state.
    for (int step = 0; step < 2; ++step) {
      auto viewed = client.View(token);
      if (!viewed.ok()) {
        std::cerr << "park: VIEW failed: " << viewed.status().ToString()
                  << "\n";
        return 1;
      }
      auto tree = ParseJson(viewed.ValueOrDie());
      if (!tree.ok()) {
        std::cerr << "park: malformed VIEW response\n";
        return 1;
      }
      std::vector<NavNodeId> expandable;
      CollectExpandable(tree.ValueOrDie(), &expandable);
      if (expandable.empty()) break;
      auto revealed = client.Expand(token, expandable.front());
      if (!revealed.ok()) {
        std::cerr << "park: EXPAND failed: " << revealed.status().ToString()
                  << "\n";
        return 1;
      }
    }
    auto view = client.View(token);
    if (!view.ok()) {
      std::cerr << "park: VIEW failed: " << view.status().ToString() << "\n";
      return 1;
    }
    out << "{\"token\":\"" << JsonEscape(token) << "\",\"query\":\""
        << JsonEscape(variant.query) << "\",\"view\":\""
        << JsonEscape(view.ValueOrDie()) << "\"}\n";
  }
  out.flush();
  if (!out) {
    std::cerr << "park: short write to " << path << "\n";
    return 1;
  }
  std::cout << "parked " << count << " open sessions to " << path << "\n";
  return 0;
}

/// Replays VIEW for every token recorded in `path` and demands a
/// byte-identical response. With `tolerate`, shed responses and failed
/// connects get a bounded backoff-and-retry (the warm-restart window).
/// Scrapes the restore-latency p99 from STATS (of `stats_spec` when
/// given — a router's STATS has no backend histograms) into the --json
/// record. Nonzero on any mismatch or unrecoverable token.
int VerifyParked(const std::string& host, int port, WireProto proto,
                 const std::string& path, bool tolerate,
                 const std::string& stats_spec, const BenchOptions& opts) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "verify-parked: cannot read " << path << "\n";
    return 1;
  }
  NavClientOptions options;
  options.proto = proto;
  if (tolerate) options.connect_retries = 10;
  std::unique_ptr<NavClient> client;
  auto connect = [&]() -> bool {
    auto connected = NavClient::Connect(host, port, options);
    if (!connected.ok()) {
      std::cerr << "verify-parked: " << connected.status().ToString() << "\n";
      return false;
    }
    client = std::move(connected.ValueOrDie());
    return true;
  };
  if (!connect()) return 1;

  Timer wall;
  wall.Restart();
  int verified = 0, mismatched = 0, failed = 0, retried = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok() || !parsed.ValueOrDie().is_object()) {
      std::cerr << "verify-parked: malformed record in " << path << "\n";
      return 1;
    }
    const JsonValue& record = parsed.ValueOrDie();
    const std::string token = record.StringOr("token", "");
    const std::string expected = record.StringOr("view", "");
    Result<std::string> view = client->View(token);
    for (int attempt = 0;
         !view.ok() && tolerate && IsShedStatus(view.status()) &&
         attempt < 40;
         ++attempt) {
      ++retried;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!connect()) continue;
      view = client->View(token);
    }
    if (!view.ok()) {
      ++failed;
      std::cerr << "verify-parked: VIEW " << token
                << " failed: " << view.status().ToString() << "\n";
      continue;
    }
    if (view.ValueOrDie() == expected) {
      ++verified;
    } else {
      ++mismatched;
      std::cerr << "verify-parked: VIEW " << token
                << " differs from its parked-time response\n";
    }
  }
  double wall_ms = wall.ElapsedMillis();

  double restore_p99_ms = -1;
  std::string stats_host = host;
  int stats_port = port;
  if (!stats_spec.empty() &&
      !ParseHostPort(stats_spec, &stats_host, &stats_port)) {
    std::cerr << "verify-parked: --stats-target needs HOST:PORT\n";
    return 1;
  }
  if (auto scraper = NavClient::Connect(stats_host, stats_port, options);
      scraper.ok()) {
    if (auto stats_doc = scraper.ValueOrDie()->Stats(); stats_doc.ok()) {
      restore_p99_ms =
          ServerP99Ms(stats_doc.ValueOrDie(), "bionav_session_restore_us");
    }
  }

  std::cout << "verify-parked: " << verified << " byte-identical, "
            << mismatched << " mismatched, " << failed << " failed, "
            << retried << " shed retries; session restore p99 ";
  if (restore_p99_ms < 0) {
    std::cout << "- (histogram absent)\n";
  } else {
    std::cout << TextTable::Num(restore_p99_ms, 3) << " ms\n";
  }

  std::ostringstream extra;
  extra << "\"mode\": \"verify-parked\", \"parked_verified\": " << verified
        << ", \"parked_mismatched\": " << mismatched
        << ", \"parked_failed\": " << failed
        << ", \"shed_retries\": " << retried
        << ", \"restore_p99_ms\": " << restore_p99_ms;
  AppendJsonRecord(opts.json_path, "bench_serving",
                   "mode=verify-parked,proto=" +
                       std::string(WireProtoName(proto)),
                   1, wall_ms, PerSec(verified, wall_ms), extra.str());
  return (mismatched > 0 || failed > 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  int clients = 4;
  int sessions_per_client = 8;
  int distinct_queries = 0;
  double zipf_s = 0.0;
  bool cache_enabled = true;
  bool open_loop = false;
  int connections = 0;
  int io_threads = 1;
  int backends = 0;
  bool routed = false;
  bool peer_fetch = false;
  int replicas = 1;
  double replicate_above = 10.0;
  std::string target;
  WireProto proto = WireProto::kJson;
  LoadProfile profile;
  int park = 0;
  std::string park_file, verify_parked, stats_target;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int64_t value = 0;
    double dvalue = 0;
    if (StartsWith(arg, "--clients=") &&
        ParseInt64(arg.substr(10), &value) && value > 0) {
      clients = static_cast<int>(value);
    } else if (StartsWith(arg, "--connections=") &&
               ParseInt64(arg.substr(14), &value) && value > 0) {
      connections = static_cast<int>(value);
      open_loop = true;
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (StartsWith(arg, "--io-threads=") &&
               ParseInt64(arg.substr(13), &value) && value > 0) {
      io_threads = static_cast<int>(value);
    } else if (StartsWith(arg, "--sessions=") &&
               ParseInt64(arg.substr(11), &value) && value > 0) {
      sessions_per_client = static_cast<int>(value);
    } else if (StartsWith(arg, "--distinct-queries=") &&
               ParseInt64(arg.substr(19), &value) && value >= 0) {
      distinct_queries = static_cast<int>(value);
    } else if (StartsWith(arg, "--zipf-s=") &&
               ParseDouble(arg.substr(9), &dvalue) && dvalue >= 0) {
      zipf_s = dvalue;
    } else if (arg == "--cache=off") {
      cache_enabled = false;
    } else if (arg == "--cache=on") {
      cache_enabled = true;
    } else if (arg == "--proto=json") {
      proto = WireProto::kJson;
    } else if (arg == "--proto=binary") {
      proto = WireProto::kBinary;
    } else if (StartsWith(arg, "--backends=") &&
               ParseInt64(arg.substr(11), &value) && value > 0) {
      backends = static_cast<int>(value);
    } else if (arg == "--routed") {
      routed = true;
    } else if (arg == "--peer-fetch") {
      peer_fetch = true;
    } else if (StartsWith(arg, "--replicas=") &&
               ParseInt64(arg.substr(11), &value) && value > 0) {
      replicas = static_cast<int>(value);
    } else if (StartsWith(arg, "--replicate-above=") &&
               ParseDouble(arg.substr(18), &dvalue) && dvalue >= 0) {
      replicate_above = dvalue;
    } else if (StartsWith(arg, "--target=")) {
      target = arg.substr(9);
    } else if (StartsWith(arg, "--archetype=")) {
      std::string name = arg.substr(12);
      if (name == "finder") {
        profile.archetype = Archetype::kFinder;
      } else if (name == "browser") {
        profile.archetype = Archetype::kBrowser;
      } else if (name == "backtracker") {
        profile.archetype = Archetype::kBacktracker;
      } else {
        std::cerr << "bench_serving: unknown archetype '" << name << "'\n";
        return 2;
      }
    } else if (StartsWith(arg, "--think-ms=") &&
               ParseDouble(arg.substr(11), &dvalue) && dvalue >= 0) {
      profile.think_ms = dvalue;
    } else if (StartsWith(arg, "--abandon-p=") &&
               ParseDouble(arg.substr(12), &dvalue) && dvalue >= 0 &&
               dvalue <= 1) {
      profile.abandon_p = dvalue;
    } else if (arg == "--tolerate-retry-later") {
      profile.tolerate_retry_later = true;
    } else if (arg == "--batch-expand") {
      profile.batch_expand = true;
    } else if (StartsWith(arg, "--park=") &&
               ParseInt64(arg.substr(7), &value) && value > 0) {
      park = static_cast<int>(value);
    } else if (StartsWith(arg, "--park-file=")) {
      park_file = arg.substr(12);
    } else if (StartsWith(arg, "--verify-parked=")) {
      verify_parked = arg.substr(16);
    } else if (StartsWith(arg, "--stats-target=")) {
      stats_target = arg.substr(15);
    } else {
      std::cerr << "bench_serving: unknown arg '" << arg << "'\n";
      return 2;
    }
  }

  if (open_loop && connections == 0) connections = 64;
  if (backends > 0 && !target.empty()) {
    std::cerr << "bench_serving: --backends and --target are exclusive\n";
    return 2;
  }
  if (profile.batch_expand && profile.archetype != Archetype::kBrowser) {
    std::cerr << "bench_serving: --batch-expand needs --archetype=browser\n";
    return 2;
  }
  if (open_loop && (profile.archetype != Archetype::kFinder ||
                    profile.think_ms > 0 || profile.abandon_p > 0 ||
                    park > 0)) {
    std::cerr << "bench_serving: archetypes, think times, abandonment and "
                 "--park are closed-loop only\n";
    return 2;
  }
  if ((park > 0) != !park_file.empty()) {
    std::cerr << "bench_serving: --park=N and --park-file=PATH go together\n";
    return 2;
  }
  if (peer_fetch && backends <= 0) {
    std::cerr << "bench_serving: --peer-fetch needs --backends=N\n";
    return 2;
  }
  if (routed && backends <= 0 && target.empty()) {
    std::cerr << "bench_serving: --routed needs a router endpoint "
                 "(--backends=N or --target=HOST:PORT)\n";
    return 2;
  }
  if (routed && open_loop) {
    std::cerr << "bench_serving: --routed is closed-loop only\n";
    return 2;
  }

  // Verify mode stands alone: no workload, no in-process tier — just the
  // parked-session oracle against an external endpoint.
  if (!verify_parked.empty()) {
    std::string verify_host;
    int verify_port = 0;
    if (target.empty() || !ParseHostPort(target, &verify_host, &verify_port)) {
      std::cerr << "bench_serving: --verify-parked needs --target=HOST:PORT\n";
      return 2;
    }
    return VerifyParked(verify_host, verify_port, proto, verify_parked,
                        profile.tolerate_retry_later, stats_target, opts);
  }

  PrintPreamble(open_loop
                    ? "Serving: open-loop connection sweep on NavServer"
                    : "Serving: closed-loop Zipf load on NavServer");
  const Workload& w = SharedWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  std::vector<QueryVariant> universe = BuildQueryUniverse(w, distinct_queries);

  int concurrent = open_loop ? connections : clients;
  NavServerOptions server_options;
  server_options.threads = opts.threads;
  server_options.io_threads = io_threads;
  // Admit every generated connection (plus the stats scraper): shed load
  // below the limit is a serving bug the final check catches.
  if (concurrent + 8 > server_options.max_connections) {
    server_options.max_connections = concurrent + 8;
  }
  server_options.session.max_sessions =
      static_cast<size_t>(concurrent) * 2 + 8;
  server_options.session.cache_enabled = cache_enabled;

  // The endpoint under test comes in three shapes: the default in-process
  // NavServer, a sharded tier (--backends=N stands up N NavServers behind
  // an in-process NavRouter so both load models drive the full router data
  // path over real TCP), or an external endpoint (--target=HOST:PORT, e.g.
  // a bionav_route fleet started out of band).
  std::string host = "127.0.0.1";
  int port = 0;
  std::unique_ptr<NavServer> server;
  // Fetchers are captured by reference in shard session options, so they
  // must outlive the shards (declared first → destroyed last).
  std::vector<std::unique_ptr<PeerArtifactFetcher>> fetchers;
  std::vector<std::unique_ptr<NavServer>> shards;
  std::unique_ptr<NavRouter> router;
  if (!target.empty()) {
    size_t colon = target.rfind(':');
    int64_t target_port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseInt64(target.substr(colon + 1), &target_port) ||
        target_port <= 0 || target_port > 65535) {
      std::cerr << "bench_serving: --target needs HOST:PORT\n";
      return 2;
    }
    host = target.substr(0, colon);
    port = static_cast<int>(target_port);
    std::cout << "target: " << host << ":" << port << " (external), "
              << WireProtoName(proto) << " wire\n";
  } else if (backends > 0) {
    NavRouterOptions router_options;
    router_options.io_threads = io_threads;
    router_options.max_connections = server_options.max_connections;
    router_options.replicas = replicas;
    router_options.replicate_above_qps = replicate_above;
    std::vector<RouterBackend> fleet;
    for (int b = 0; b < backends; ++b) {
      std::string id = "shard" + std::to_string(b);
      NavServerOptions shard_options = server_options;
      // The router pins sessions by token string, so each shard's minted
      // tokens must be unique fleet-wide.
      shard_options.session.token_prefix = id + "-";
      if (peer_fetch) {
        // Installed before the NavServer copies its options; configured
        // with the full fleet once every shard has a port.
        auto fetcher = std::make_unique<PeerArtifactFetcher>(&w.hierarchy());
        PeerArtifactFetcher* raw = fetcher.get();
        shard_options.session.peer_fetcher =
            [raw](const std::string& key) { return raw->Fetch(key); };
        fetchers.push_back(std::move(fetcher));
      }
      auto shard = std::make_unique<NavServer>(
          &w.hierarchy(), &eutils, MakeBioNavStrategyFactory(), shard_options);
      if (Status up = shard->Start(); !up.ok()) {
        std::cerr << up.ToString() << "\n";
        return 1;
      }
      fleet.push_back({"127.0.0.1", shard->port(), id});
      shards.push_back(std::move(shard));
    }
    if (peer_fetch) {
      std::vector<PeerSpec> peers;
      for (int b = 0; b < backends; ++b) {
        peers.push_back({"shard" + std::to_string(b), "127.0.0.1",
                         shards[static_cast<size_t>(b)]->port()});
      }
      for (int b = 0; b < backends; ++b) {
        PeerFetchOptions peer_options;
        peer_options.self_id = "shard" + std::to_string(b);
        peer_options.peers = peers;
        peer_options.vnodes = router_options.ring_vnodes;
        peer_options.seed = router_options.ring_seed;
        fetchers[static_cast<size_t>(b)]->Configure(std::move(peer_options));
      }
    }
    router = std::make_unique<NavRouter>(std::move(fleet), router_options);
    if (Status started = router->Start(); !started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
    port = router->port();
    std::cout << "tier: router 127.0.0.1:" << port << " over " << backends
              << " shards, " << server_options.threads
              << " worker threads each, " << io_threads
              << " io thread(s), cache " << (cache_enabled ? "on" : "off")
              << ", peer-fetch " << (peer_fetch ? "on" : "off")
              << ", replicas " << replicas << " above "
              << replicate_above << " qps, "
              << (routed ? "client-routed, " : "")
              << WireProtoName(proto) << " wire\n";
  } else {
    server = std::make_unique<NavServer>(
        &w.hierarchy(), &eutils, MakeBioNavStrategyFactory(), server_options);
    if (Status started = server->Start(); !started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
    port = server->port();
    std::cout << "server: 127.0.0.1:" << port << ", "
              << server_options.threads << " worker threads, " << io_threads
              << " io thread(s), cache " << (cache_enabled ? "on" : "off")
              << ", " << WireProtoName(proto) << " wire\n";
  }
  if (open_loop) {
    std::cout << "load: " << connections << " open-loop connections x "
              << sessions_per_client << " sessions, " << universe.size()
              << " distinct queries, zipf_s=" << zipf_s << "\n\n";
  } else {
    std::cout << "load: " << clients << " clients x " << sessions_per_client
              << " sessions (+" << opts.warmup << " warmup), "
              << universe.size() << " distinct queries, zipf_s=" << zipf_s
              << ", archetype=" << ArchetypeName(profile.archetype)
              << ", think_ms=" << profile.think_ms
              << ", abandon_p=" << profile.abandon_p << "\n\n";
  }

  std::vector<ClientResult> results(static_cast<size_t>(clients));
  OpenLoopTotals open_totals;
  double wall_ms = 0;
  if (open_loop) {
    OpenLoopHarness harness(host, port, universe, zipf_s, proto, connections,
                            sessions_per_client);
    Timer wall;
    open_totals = harness.Run();
    wall_ms = wall.ElapsedMillis();
  } else {
    auto run_phase = [&](uint64_t salt, int sessions,
                         std::vector<ClientResult>* out) {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          if (routed) {
            RunClient<RoutedNavClient>(universe, zipf_s, c, salt, sessions,
                                       host, port, proto, profile,
                                       &(*out)[static_cast<size_t>(c)]);
          } else {
            RunClient<NavClient>(universe, zipf_s, c, salt, sessions, host,
                                 port, proto, profile,
                                 &(*out)[static_cast<size_t>(c)]);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    };
    // Warmup phase: discarded sessions prime allocator arenas and the
    // artifact cache, so the measured distribution reflects steady state.
    if (opts.warmup > 0) {
      std::vector<ClientResult> warmup_results(static_cast<size_t>(clients));
      run_phase(/*salt=*/0x77ULL, opts.warmup, &warmup_results);
      for (const ClientResult& r : warmup_results) {
        if (!r.first_error.empty()) {
          std::cerr << "warmup client error: " << r.first_error << "\n";
          return 1;
        }
      }
    }
    Timer wall;
    run_phase(/*salt=*/0, sessions_per_client, &results);
    wall_ms = wall.ElapsedMillis();
  }

  // Durability park rides after the measured phase: open --park sessions,
  // record their VIEW responses to --park-file, leave them open for a
  // later --verify-parked run (meaningful against --target, where the
  // server outlives this process).
  if (park > 0) {
    if (int rc = ParkSessions(host, port, proto, universe, park, park_file);
        rc != 0) {
      return rc;
    }
  }

  // Wire-volume accounting is snapshotted before the stats scraper
  // connects, so bytes/request reflects only the load phases (warmup is
  // proportionally identical across protocols and does not skew the
  // per-request average). With the sharded tier the shards' counters are
  // summed — that is the backend-side wire volume, one router hop in from
  // what the clients saw. An external --target leaves them zero.
  NavServerStats wire_stats{};
  if (server != nullptr) wire_stats = server->stats();
  for (const std::unique_ptr<NavServer>& shard : shards) {
    NavServerStats s = shard->stats();
    wire_stats.requests += s.requests;
    wire_stats.bytes_rx += s.bytes_rx;
    wire_stats.bytes_tx += s.bytes_tx;
    wire_stats.connections_accepted += s.connections_accepted;
    wire_stats.connections_shed += s.connections_shed;
    wire_stats.connections_idle_closed += s.connections_idle_closed;
    wire_stats.epoll_wakeups += s.epoll_wakeups;
    wire_stats.sessions.created += s.sessions.created;
    wire_stats.sessions.closed += s.sessions.closed;
    wire_stats.sessions.evicted_lru += s.sessions.evicted_lru;
    wire_stats.sessions.artifact_builds += s.sessions.artifact_builds;
    wire_stats.sessions.peer_fetch_hits += s.sessions.peer_fetch_hits;
    wire_stats.sessions.peer_fetch_misses += s.sessions.peer_fetch_misses;
  }
  NavRouterStats router_stats{};
  if (router != nullptr) router_stats = router->stats();
  double bytes_tx_per_req =
      wire_stats.requests > 0
          ? static_cast<double>(wire_stats.bytes_tx) /
                static_cast<double>(wire_stats.requests)
          : 0.0;
  double bytes_rx_per_req =
      wire_stats.requests > 0
          ? static_cast<double>(wire_stats.bytes_rx) /
                static_cast<double>(wire_stats.requests)
          : 0.0;
  // Flush-batch shape: frames coalesced per sendmsg on the reactor's
  // write path (the histogram's "_us" fields carry frame counts here).
  double flush_batch_mean = 0.0, flush_batch_p99 = 0.0;
  if (const LatencyHistogram* fb =
          GlobalMetrics().FindHistogram("bionav_server_flush_batch");
      fb != nullptr && fb->Count() > 0) {
    flush_batch_mean = static_cast<double>(fb->SumMicros()) /
                       static_cast<double>(fb->Count());
    flush_batch_p99 = fb->Quantile(0.99);
  }

  // Scrape the server's own percentiles and cache counters over the wire
  // before shutdown — this also exercises the STATS exposition end to end.
  double server_query_p99 = -1, server_expand_p99 = -1;
  int64_t cache_hits = 0, cache_misses = 0, cache_entries = 0,
          cache_bytes = 0;
  if (auto scraper = NavClient::Connect(host, port); scraper.ok()) {
    if (auto stats_doc = scraper.ValueOrDie()->Stats(); stats_doc.ok()) {
      server_query_p99 =
          ServerP99Ms(stats_doc.ValueOrDie(), "bionav_server_op_query_us");
      server_expand_p99 =
          ServerP99Ms(stats_doc.ValueOrDie(), "bionav_server_op_expand_us");
      if (const JsonValue* c = stats_doc.ValueOrDie().Find("cache")) {
        cache_hits = c->IntOr("hits", 0);
        cache_misses = c->IntOr("misses", 0);
        cache_entries = c->IntOr("entries", 0);
        cache_bytes = c->IntOr("bytes", 0);
      } else if (const JsonValue* fleet =
                     stats_doc.ValueOrDie().Find("fleet")) {
        // A router endpoint exposes the fleet rollup instead of a single
        // server's cache block (entries/bytes are per-shard, not summed).
        cache_hits = fleet->IntOr("cache_hits", 0);
        cache_misses = fleet->IntOr("cache_misses", 0);
      }
    }
  }
  // The fleet rollup lags a health-probe interval behind the load; with the
  // in-process tier the shards are right here, so scrape them directly for
  // an up-to-date cache picture.
  if (!shards.empty()) {
    cache_hits = cache_misses = cache_entries = cache_bytes = 0;
    for (const std::unique_ptr<NavServer>& shard : shards) {
      auto scraper = NavClient::Connect("127.0.0.1", shard->port());
      if (!scraper.ok()) continue;
      auto stats_doc = scraper.ValueOrDie()->Stats();
      if (!stats_doc.ok()) continue;
      if (const JsonValue* c = stats_doc.ValueOrDie().Find("cache")) {
        cache_hits += c->IntOr("hits", 0);
        cache_misses += c->IntOr("misses", 0);
        cache_entries += c->IntOr("entries", 0);
        cache_bytes += c->IntOr("bytes", 0);
      }
    }
  }
  // Tear the tier down front-to-back so shards never see a dead router's
  // upstream connections as client aborts.
  if (router != nullptr) router->Shutdown();
  for (const std::unique_ptr<NavServer>& shard : shards) shard->Shutdown();
  if (server != nullptr) server->Shutdown();

  int done = 0, failed = 0, shed = 0, transport_errors = 0;
  int parked_open = 0, shed_retries = 0;
  int64_t direct_calls = 0, proxied_calls = 0;
  OpLatencies all;
  if (open_loop) {
    done = open_totals.sessions_done;
    failed = open_totals.sessions_failed;
    shed = open_totals.shed;
    transport_errors = open_totals.transport_errors;
    all.MergeFrom(open_totals.latencies);
    if (!open_totals.first_error.empty()) {
      std::cerr << "client error: " << open_totals.first_error << "\n";
    }
  } else {
    for (const ClientResult& r : results) {
      done += r.sessions_done;
      failed += r.sessions_failed;
      shed += r.retry_later;
      parked_open += r.sessions_parked;
      shed_retries += r.shed_retries;
      direct_calls += r.direct_calls;
      proxied_calls += r.proxied_calls;
      all.MergeFrom(r.latencies);
      if (!r.first_error.empty()) {
        std::cerr << "client error: " << r.first_error << "\n";
      }
    }
  }
  std::sort(all.query_cold_ms.begin(), all.query_cold_ms.end());
  std::sort(all.query_warm_ms.begin(), all.query_warm_ms.end());
  std::sort(all.expand_ms.begin(), all.expand_ms.end());
  std::sort(all.other_ms.begin(), all.other_ms.end());

  // Aggregate distribution over every operation class — the one-number
  // comparison between a direct server and the routed tier, where each
  // op pays the extra hop.
  std::vector<double> all_ops;
  all_ops.reserve(all.query_cold_ms.size() + all.query_warm_ms.size() +
                  all.expand_ms.size() + all.other_ms.size());
  for (const std::vector<double>* v :
       {&all.query_cold_ms, &all.query_warm_ms, &all.expand_ms,
        &all.other_ms}) {
    all_ops.insert(all_ops.end(), v->begin(), v->end());
  }
  std::sort(all_ops.begin(), all_ops.end());
  double aggregate_p99 = Percentile(&all_ops, 0.99);

  const NavServerStats& stats = wire_stats;
  TextTable table;
  table.SetHeader({"Op", "Requests", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                   "Server p99"});
  auto op_row = [&](const char* op, std::vector<double>* sorted,
                    double server_p99) {
    table.AddRow({op, std::to_string(sorted->size()),
                  TextTable::Num(Percentile(sorted, 0.50), 3),
                  TextTable::Num(Percentile(sorted, 0.95), 3),
                  TextTable::Num(Percentile(sorted, 0.99), 3),
                  server_p99 < 0 ? "-" : TextTable::Num(server_p99, 3)});
  };
  op_row("QUERY cold", &all.query_cold_ms, server_query_p99);
  op_row("QUERY warm", &all.query_warm_ms, -1);
  op_row("EXPAND", &all.expand_ms, server_expand_p99);
  op_row("other", &all.other_ms, -1);
  std::cout << table.ToString();

  double cold_p50 = Percentile(&all.query_cold_ms, 0.50);
  double warm_p50 = Percentile(&all.query_warm_ms, 0.50);
  int64_t cache_lookups = cache_hits + cache_misses;
  double hit_rate = cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                            static_cast<double>(cache_lookups)
                                      : 0.0;
  std::cout << "\nsessions: " << done << " done, " << failed << " failed, "
            << parked_open << " abandoned open, " << shed_retries
            << " tolerated shed retries, " << transport_errors
            << " transport errors, "
            << TextTable::Num(PerSec(done, wall_ms), 1) << "/s\n";
  if (server != nullptr || !shards.empty()) {
    std::cout << "server: " << stats.requests << " requests, "
              << stats.connections_accepted << " connections accepted, "
              << stats.connections_shed << " shed, "
              << stats.connections_idle_closed << " idle-closed, "
              << stats.epoll_wakeups << " epoll wakeups, "
              << stats.sessions.created << " sessions created, "
              << stats.sessions.evicted_lru << " LRU-evicted\n";
  }
  if (router != nullptr) {
    std::cout << "router: " << router_stats.forwarded << " forwarded, "
              << router_stats.retry_later << " retry-later, "
              << router_stats.protocol_errors << " protocol errors, "
              << router_stats.healthy_backends << "/"
              << router_stats.backends.size() << " healthy; per backend:";
    for (const RouterBackendStats& b : router_stats.backends) {
      std::cout << " " << b.id << "=" << b.forwarded;
    }
    std::cout << "\n";
    std::cout << "router wire: " << router_stats.bytes_rx << " B rx / "
              << router_stats.bytes_tx << " B tx (the relay hop client "
              << "routing avoids)\n";
  }
  if (!shards.empty()) {
    std::cout << "artifacts: " << wire_stats.sessions.artifact_builds
              << " built fleet-wide, " << wire_stats.sessions.peer_fetch_hits
              << " peer-fetch hits, " << wire_stats.sessions.peer_fetch_misses
              << " peer-fetch misses\n";
  }
  if (routed) {
    std::cout << "routing: " << direct_calls << " shard-direct calls, "
              << proxied_calls << " proxied via router\n";
  }
  std::cout << "cache: " << cache_hits << " hits, " << cache_misses
            << " misses (hit rate " << TextTable::Num(hit_rate, 3) << "), "
            << cache_entries << " entries, " << cache_bytes << " bytes";
  if (warm_p50 > 0 && cold_p50 > 0) {
    std::cout << ", warm QUERY p50 " << TextTable::Num(cold_p50 / warm_p50, 1)
              << "x faster than cold";
  }
  std::cout << "\n"
            << "wire: " << WireProtoName(proto) << ", " << wire_stats.bytes_rx
            << " B rx / " << wire_stats.bytes_tx << " B tx ("
            << TextTable::Num(bytes_rx_per_req, 1) << " rx / "
            << TextTable::Num(bytes_tx_per_req, 1)
            << " tx B per request), flush batch mean "
            << TextTable::Num(flush_batch_mean, 2) << " frames, p99 "
            << TextTable::Num(flush_batch_p99, 1) << "\n";

  std::ostringstream extra;
  extra << "\"mode\": \"" << (open_loop ? "open" : "closed") << "\""
        << ", \"proto\": \"" << WireProtoName(proto) << "\""
        << ", \"connections\": " << concurrent
        << ", \"bytes_per_request\": " << bytes_tx_per_req
        << ", \"bytes_rx_per_request\": " << bytes_rx_per_req
        << ", \"flush_batch_mean\": " << flush_batch_mean
        << ", \"flush_batch_p99\": " << flush_batch_p99
        << ", \"transport_errors\": " << transport_errors
        << ", \"cache\": " << (cache_enabled ? "true" : "false")
        << ", \"cache_hit_rate\": " << hit_rate
        << ", \"zipf_s\": " << zipf_s
        << ", \"distinct_queries\": " << universe.size()
        << ", \"warmup\": " << opts.warmup
        << ", \"query_cold_p50_ms\": " << cold_p50
        << ", \"query_warm_p50_ms\": " << warm_p50
        << ", \"query_warm_p99_ms\": " << Percentile(&all.query_warm_ms, 0.99)
        << ", \"expand_p99_ms\": " << Percentile(&all.expand_ms, 0.99)
        << ", \"aggregate_p99_ms\": " << aggregate_p99
        << ", \"archetype\": \"" << ArchetypeName(profile.archetype) << "\""
        << ", \"think_ms\": " << profile.think_ms
        << ", \"abandon_p\": " << profile.abandon_p
        << ", \"sessions_parked\": " << parked_open
        << ", \"shed_retries\": " << shed_retries << ", \"tier\": \""
        << (router != nullptr ? "router"
                              : (target.empty() ? "server" : "external"))
        << "\"";
  if (router != nullptr) {
    extra << ", \"backends\": " << router_stats.backends.size()
          << ", \"backend_requests\": [";
    for (size_t b = 0; b < router_stats.backends.size(); ++b) {
      extra << (b > 0 ? ", " : "") << router_stats.backends[b].forwarded;
    }
    extra << "]"
          << ", \"router_bytes_rx\": " << router_stats.bytes_rx
          << ", \"router_bytes_tx\": " << router_stats.bytes_tx
          << ", \"replicas\": " << replicas
          << ", \"replicate_above\": " << replicate_above;
  }
  if (!shards.empty()) {
    extra << ", \"peer_fetch\": " << (peer_fetch ? "true" : "false")
          << ", \"artifact_builds\": " << wire_stats.sessions.artifact_builds
          << ", \"peer_fetch_hits\": " << wire_stats.sessions.peer_fetch_hits
          << ", \"peer_fetch_misses\": "
          << wire_stats.sessions.peer_fetch_misses;
  }
  extra << ", \"routed\": " << (routed ? "true" : "false")
        << ", \"direct_calls\": " << direct_calls
        << ", \"proxied_calls\": " << proxied_calls;
  AppendJsonRecord(
      opts.json_path, "bench_serving",
      std::string(open_loop ? "mode=open,connections=" : "mode=closed,clients=") +
          std::to_string(concurrent) +
          ",sessions=" + std::to_string(sessions_per_client) +
          ",cache=" + (cache_enabled ? "on" : "off") + ",proto=" +
          WireProtoName(proto),
      server_options.threads, wall_ms, PerSec(done, wall_ms), extra.str());

  // Every connection stayed below the admission limit: a dropped or shed
  // session — or, in open-loop mode, any transport-level failure — is a
  // serving bug, not load. Under --tolerate-retry-later the typed shed
  // window is expected (a backend restarted under load) and only sessions
  // that stayed failed after the bounded retries count.
  bool shed_is_failure = !profile.tolerate_retry_later;
  if (failed > 0 || (shed_is_failure && shed > 0) || transport_errors > 0 ||
      stats.connections_shed > 0 || router_stats.protocol_errors > 0 ||
      (shed_is_failure && router_stats.retry_later > 0)) {
    std::cerr << "ERROR: " << failed << " failed / " << shed << " shed / "
              << transport_errors
              << " transport errors below the admission limit"
              << (router != nullptr ? " (router: " +
                                          std::to_string(
                                              router_stats.retry_later) +
                                          " retry-later, " +
                                          std::to_string(
                                              router_stats.protocol_errors) +
                                          " protocol errors)"
                                    : "")
              << "\n";
    return 1;
  }
  return 0;
}
