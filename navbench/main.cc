// Serving benchmark of the BioNav navigation service.
//
//   navbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload against the in-process serving stack (NavServer, or
// NavRouter over NavServer shards), checks every reply against the
// in-process oracle, prints each metric as "name value unit" and ends with
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set of a separate traced run. README.md next to this file
// explains the workloads and the metrics.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"
#include "loadgen.h"
#include "replay.h"
#include "schedule.h"
#include "stats.h"
#include "tier.h"
#include "universe.h"

using namespace bionav;
using namespace navbench;

namespace {

/// The explore universe is the largest-result head of the candidate
/// queries; the tail universe is everything after it.
constexpr size_t kExploreUniverse = 32;
constexpr size_t kMinResults = 5;
constexpr int kSetupReps = 3;
/// Interactive latency limit on every op class's p99 (max-rate search).
constexpr double kP99LimitMs = 50.0;
/// Median latency growth across a probe that counts as a growing backlog.
constexpr double kBacklogGrowthMs = 10.0;
/// A run whose generator sent ops later than this (p99) is marked
/// incorrect: the generator could not keep to its schedule. Normal lag is
/// ~0.1 ms; stalls of the shared host alone reach ~6 ms.
constexpr double kGenLagBoundMs = 20.0;
/// Shortest arrival window of one max-rate probe (a probe also lasts at
/// least one session, so long sessions reach their steady load).
constexpr double kProbeSeconds = 1.0;
constexpr int kMaxProbes = 6;
/// Stated bound on bench.trace_coverage.<op>: the server's own handler
/// time of an op class may not exceed what the client observed for the
/// same ops.
constexpr double kCoverageMax = 1.0;
constexpr int64_t kSpillAfterMs = 20;
constexpr double kWarmupSeconds = 0.5;

struct WorkloadDef {
  std::string name;
  Shape shape = Shape::kExplore;
  bool spill = false;
  double zipf_s = 0;
  double rate_sps = 80;
  double think_min_ms = 5;
  double think_max_ms = 15;
  size_t cache_bytes = QueryArtifactCacheOptions().max_bytes;
  std::string why;
};

std::vector<WorkloadDef> Workloads() {
  std::vector<WorkloadDef> defs;
  WorkloadDef explore;
  explore.name = "zipf_explore";
  explore.zipf_s = 1.1;
  explore.why =
      "warm interactive path: Zipf(1.1) over 32 pre-warmed queries, deep "
      "multi-target sessions that replay memoized cuts";
  defs.push_back(explore);

  WorkloadDef tail;
  tail.name = "cold_tail";
  tail.shape = Shape::kTail;
  tail.rate_sps = 100;
  tail.cache_bytes = size_t{16} << 20;
  tail.why =
      "build path: uniform draws over a long tail of distinct result sets "
      "whose artifacts are several times the cache budget";
  defs.push_back(tail);

  WorkloadDef idle = explore;
  idle.name = "idle_resume";
  idle.spill = true;
  idle.rate_sps = 15;
  idle.think_min_ms = 80;
  idle.think_max_ms = 100;
  idle.why =
      "zipf_explore sessions pausing past the spill threshold, so every op "
      "after QUERY restores a parked session";
  defs.push_back(idle);
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return false;
    ++i;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v);
    } else if (a == "--out") {
      args->out = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The database and query universe, rebuilt by every set-up.
struct Corpus {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<EUtilsClient> eutils;
  std::vector<QueryEntry> universe;
  std::vector<std::string> warm;
};

Result<Corpus> MakeCorpus(const WorkloadDef& def) {
  Corpus c;
  c.workload = std::make_unique<Workload>(WorkloadOptions());
  c.eutils =
      std::make_unique<EUtilsClient>(c.workload->corpus().MakeClient());
  std::vector<QueryEntry> candidates =
      CandidateQueries(*c.workload, kMinResults);
  if (candidates.size() <= 4 * kExploreUniverse) {
    return Status::Internal("corpus yields too few candidate queries");
  }
  auto head = candidates.begin() + kExploreUniverse;
  if (def.shape == Shape::kExplore) {
    c.universe.assign(candidates.begin(), head);
    for (const QueryEntry& q : c.universe) c.warm.push_back(q.query);
  } else {
    c.universe.assign(head, candidates.end());
    // Fill the budget in a fixed, seed-independent order (tail artifacts
    // are ~200 KB each), so the measured run starts with a full LRU.
    size_t entries = def.cache_bytes / (200u << 10);
    for (size_t i = 0; i < entries && i < c.universe.size(); ++i) {
      c.warm.push_back(c.universe[c.universe.size() - 1 - i].query);
    }
  }
  return c;
}

TierConfig MakeTierConfig(const WorkloadDef& def, bool routed,
                          const std::string& spill_dir,
                          StrategyFactory factory) {
  TierConfig config;
  config.routed = routed;
  config.cache_bytes = def.cache_bytes;
  config.factory = std::move(factory);
  if (def.spill) {
    config.spill_dir = spill_dir;
    config.spill_after_ms = kSpillAfterMs;
  }
  return config;
}

Result<std::unique_ptr<Tier>> StartTier(const Corpus& corpus,
                                        const TierConfig& config) {
  std::error_code ec;
  if (!config.spill_dir.empty()) {
    std::filesystem::remove_all(config.spill_dir, ec);
  }
  auto tier = Tier::Start(*corpus.workload, corpus.eutils.get(), config);
  if (!tier.ok()) return tier.status();
  Status warmed = tier.ValueOrDie()->Warm(corpus.warm);
  if (!warmed.ok()) return warmed;
  return tier;
}

// ---------------------------------------------------------------------------
// Counters read over the tier's public stats
// ---------------------------------------------------------------------------

struct Counters {
  double requests = 0, bytes_rx = 0, bytes_tx = 0, wakeups = 0, shed = 0;
  double cache_hits = 0, cache_misses = 0, cache_waits = 0,
         cache_evictions = 0, cache_bytes = 0, builds = 0,
         peer_fetch_hits = 0;
  double spilled = 0, restored = 0, restore_failed = 0, resident_bytes = 0;
  double resident_sessions = 0;
  /// Server handler time per op class (QUERY, EXPAND, SHOWRESULTS) from
  /// the process-wide op histograms' exact sums: whole microseconds per
  /// op, truncated. Only meaningful while one tier serves.
  double handler_us[3] = {};
};

/// The server's per-op histograms, as it registers them.
const char* const kHandlerHistograms[3] = {"bionav_server_op_query_us",
                                           "bionav_server_op_expand_us",
                                           "bionav_server_op_showresults_us"};

Counters ReadCounters(const Tier& tier) {
  Counters c;
  for (const auto& server : tier.servers()) {
    NavServerStats s = server->stats();
    c.requests += s.requests;
    c.bytes_rx += s.bytes_rx;
    c.bytes_tx += s.bytes_tx;
    c.wakeups += s.epoll_wakeups;
    c.shed += s.connections_shed;
    c.builds += s.sessions.artifact_builds;
    c.peer_fetch_hits += s.sessions.peer_fetch_hits;
    c.spilled += s.sessions.spilled;
    c.restored += s.sessions.restored;
    c.restore_failed += s.sessions.restore_failed;
    c.resident_bytes += s.sessions.resident_bytes;
    c.resident_sessions += s.sessions.active;
    if (const QueryArtifactCache* cache = server->session_manager().cache()) {
      QueryArtifactCacheStats cs = cache->stats();
      c.cache_hits += cs.hits;
      c.cache_misses += cs.misses;
      c.cache_waits += cs.singleflight_waits;
      c.cache_evictions += cs.evicted_lru;
      c.cache_bytes += cs.bytes;
    }
  }
  if (tier.router() != nullptr) {
    NavRouterStats rs = tier.router()->stats();
    c.shed += rs.connections_shed + rs.retry_later;
  }
  for (int k = 0; k < 3; ++k) {
    const LatencyHistogram* h =
        GlobalMetrics().FindHistogram(kHandlerHistograms[k]);
    c.handler_us[k] = h != nullptr ? static_cast<double>(h->SumMicros()) : 0;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct Traffic {
  ScheduleSpec spec;
  std::vector<SessionJob> jobs;
};

double SessionSeconds(const WorkloadDef& def,
                      const std::map<std::pair<uint32_t, uint32_t>, Script>&
                          scripts) {
  size_t max_ops = 1;
  for (const auto& [key, script] : scripts) {
    max_ops = std::max(max_ops, script.ops.size());
  }
  return static_cast<double>(max_ops) * def.think_max_ms / 1e3;
}

struct Phase {
  LoadResult load;
  Counters before, after;
  double heap_mb_max = 0;
  double resident_sessions_max = 0;
  double seconds = 0;
  /// Router tier: most / least requests forwarded to one backend.
  double backend_skew = 0;
};

std::vector<double> Forwarded(const Tier& tier) {
  std::vector<double> out;
  if (tier.router() == nullptr) return out;
  for (const RouterBackendStats& b : tier.router()->stats().backends) {
    out.push_back(static_cast<double>(b.forwarded));
  }
  return out;
}

/// Waits until the tier has answered everything queued (a failed probe
/// can leave a backlog behind).
void Quiesce(const Tier& tier) {
  double last = -1;
  for (int i = 0; i < 100; ++i) {
    double now = ReadCounters(tier).requests;
    if (now == last) return;
    last = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Runs one measured phase. With `sample_heap`, a separate thread reads
/// the session-heap and resident-session gauges every 100 ms; never the
/// generator thread, which must not block on the server's locks.
Phase RunPhase(const Tier& tier, const Traffic& traffic, double drain_s,
               bool record_frames, bool sample_heap = false) {
  Phase phase;
  LoadOptions load;
  load.port = tier.port();
  load.spec = traffic.spec;
  load.drain_s = drain_s;
  load.record_frames = record_frames;
  std::atomic<bool> done{false};
  std::thread sampler;
  if (sample_heap) {
    sampler = std::thread([&] {
      while (!done.load()) {
        Counters c = ReadCounters(tier);
        phase.heap_mb_max =
            std::max(phase.heap_mb_max, c.resident_bytes / (1024.0 * 1024.0));
        phase.resident_sessions_max =
            std::max(phase.resident_sessions_max, c.resident_sessions);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  phase.before = ReadCounters(tier);
  std::vector<double> forwarded = Forwarded(tier);
  int64_t start = NowNs();
  phase.load = RunLoad(load, traffic.jobs);
  phase.seconds = (NowNs() - start) / 1e9;
  done.store(true);
  if (sampler.joinable()) sampler.join();
  phase.after = ReadCounters(tier);
  std::vector<double> now = Forwarded(tier);
  if (!now.empty()) {
    double lo = INFINITY, hi = 0;
    for (size_t b = 0; b < now.size(); ++b) {
      lo = std::min(lo, now[b] - forwarded[b]);
      hi = std::max(hi, now[b] - forwarded[b]);
    }
    phase.backend_skew = lo > 0 ? hi / lo : 0;
  }
  return phase;
}

struct OpStats {
  std::vector<double> by_kind[kNumOpKinds];
  std::vector<double> cold_query, resume, all, lag;
};

OpStats CollectOps(const LoadResult& load, bool resumes) {
  OpStats s;
  for (const OpRecord& op : load.ops) {
    if (op.recv_ns == 0) continue;
    double ms = op.latency_ms();
    s.by_kind[static_cast<int>(op.kind)].push_back(ms);
    s.all.push_back(ms);
    s.lag.push_back(op.lag_ms());
    if (op.kind == OpKind::kQuery && !op.cached) s.cold_query.push_back(ms);
    if (resumes && op.kind != OpKind::kQuery) s.resume.push_back(ms);
  }
  return s;
}

/// How far a phase is from its limits, as a ratio that crosses 1 at the
/// first limit hit: the worst op class's p99 over kP99LimitMs, or the
/// growth of the median latency from the first to the last third of the
/// phase over kBacklogGrowthMs (a growing backlog). Infinite when any op
/// failed or the generator fell behind.
double WorstRatio(const LoadResult& load) {
  if (load.failed() > 0 || load.ops.empty()) return INFINITY;
  OpStats s = CollectOps(load, false);
  std::sort(s.lag.begin(), s.lag.end());
  if (NearestRank(s.lag, 99) > kGenLagBoundMs) return INFINITY;
  double worst = 0;
  for (auto& v : s.by_kind) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    worst = std::max(worst, NearestRank(v, 99) / kP99LimitMs);
  }
  int64_t first = load.ops.front().due_ns, last = first;
  for (const OpRecord& op : load.ops) last = std::max(last, op.due_ns);
  const int64_t third = (last - first) / 3;
  std::vector<double> early, late;
  for (const OpRecord& op : load.ops) {
    if (op.due_ns < first + third) early.push_back(op.latency_ms());
    if (op.due_ns >= last - third) late.push_back(op.latency_ms());
  }
  double growth = Median(late) - Median(early);
  return std::max(worst, growth / kBacklogGrowthMs);
}

/// Probe traffic: the main phase's sessions, re-timed to `rate`.
Traffic ProbeTraffic(const Traffic& main, double session_s, double rate,
                     uint64_t seed, int probe) {
  Traffic t;
  t.spec = main.spec;
  t.spec.rate_sps = rate;
  t.spec.arrive_s = std::max(kProbeSeconds, session_s);
  t.spec.seed = seed * 1000003 + static_cast<uint64_t>(probe) + 1;
  std::vector<SessionPlan> timed = MakeSchedule(t.spec);
  for (size_t i = 0; i < timed.size(); ++i) {
    SessionJob job = main.jobs[i % main.jobs.size()];
    job.plan.arrival_ns = timed[i].arrival_ns;
    t.jobs.push_back(job);
  }
  return t;
}

/// Discarded warm-up traffic, run before measuring so the reactor, pool
/// and allocator reach steady state: the schedule's last sessions, re-timed
/// to start now. (Its first ones would leave the cache holding exactly the
/// queries the measured run opens with.)
Traffic WarmupTraffic(const Traffic& main) {
  Traffic t;
  t.spec = main.spec;
  const int64_t from = main.jobs.back().plan.arrival_ns -
                       static_cast<int64_t>(kWarmupSeconds * 1e9);
  for (const SessionJob& job : main.jobs) {
    if (job.plan.arrival_ns < from) continue;
    t.jobs.push_back(job);
    t.jobs.back().plan.arrival_ns -= from;
  }
  return t;
}

struct SweepResult {
  double max_rate = 0;
  int64_t attempted = 0;
  int64_t bad = 0;  // Error replies or oracle mismatches.
  std::vector<std::pair<double, double>> probes;  // (rate, worst ratio)
};

/// Highest offered session rate whose probe meets the p99 limit on every
/// op class with no failure and no generator backlog: step up by 1.6x from
/// the main phase until a probe misses, bisect that bracket once, then
/// interpolate the limit crossing in log-log space.
SweepResult MaxRate(const Tier& tier, const Traffic& main, double main_ratio,
                    double session_s, double drain_s, uint64_t seed) {
  SweepResult out;
  int probes = 0;
  auto probe = [&](double rate) {
    Quiesce(tier);
    Phase p = RunPhase(
        tier, ProbeTraffic(main, session_s, rate, seed, probes++), drain_s,
        false);
    out.attempted += p.load.attempted;
    out.bad += p.load.error_replies + p.load.mismatches;
    double ratio = WorstRatio(p.load);
    out.probes.push_back({rate, ratio});
    return ratio;
  };
  double pass = main.spec.rate_sps, pass_ratio = main_ratio;
  double fail = 0, fail_ratio = INFINITY;
  while (pass_ratio > 1 && probes < kMaxProbes) {
    fail = pass;
    fail_ratio = pass_ratio;
    pass /= 1.6;
    pass_ratio = probe(pass);
  }
  if (fail == 0) {
    double rate = pass;
    while (probes < kMaxProbes - 1) {
      rate *= 1.6;
      double ratio = probe(rate);
      if (ratio > 1) {
        fail = rate;
        fail_ratio = ratio;
        break;
      }
      pass = rate;
      pass_ratio = ratio;
    }
  }
  if (fail > 0 && probes < kMaxProbes) {
    double mid = std::sqrt(pass * fail);
    double ratio = probe(mid);
    (ratio > 1 ? fail : pass) = mid;
    (ratio > 1 ? fail_ratio : pass_ratio) = ratio;
  }
  out.max_rate = pass;
  if (fail > 0 && std::isfinite(fail_ratio) && pass_ratio > 0) {
    double f = -std::log(pass_ratio) /
               (std::log(fail_ratio) - std::log(pass_ratio));
    out.max_rate = pass * std::pow(fail / pass, std::clamp(f, 0.0, 1.0));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// A contract metric: printed and put in the final JSON line.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    Print(name, value, unit, note);
    metrics_.push_back({name, value, unit});
  }
  /// Printed only: workload-specific or diagnostic.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    Print(name, value, unit, note);
  }
  std::string Json(bool correct, int64_t attempted, int64_t failed) const {
    std::ostringstream out;
    out << std::setprecision(10);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      double v = std::isfinite(m.value) ? m.value : 0;
      out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
          << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  static void Print(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
    std::cout << "  " << std::left << std::setw(34) << name << " "
              << std::setprecision(6) << value << " " << unit
              << (note.empty() ? "" : "  (" + note + ")") << "\n";
  }
  std::vector<Metric> metrics_;
};

std::string CountNote(size_t n) { return "n=" + std::to_string(n); }

/// p50 and, where the sample supports it, p99 of one op class; each is a
/// contract metric or printed only.
void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& samples, bool bound_p50,
                bool bound_p99) {
  if (samples.empty() && !bound_p50) return;
  Summary s = Summarize(samples);
  auto add = [&](bool bound, const std::string& name, double v,
                 const std::string& note) {
    if (bound) {
      report->Add(name, v, "ms", note);
    } else {
      report->Info(name, v, "ms", note);
    }
  };
  add(bound_p50, prefix + "_p50_ms", s.p50, CountNote(s.count));
  if (s.has_p99) {
    add(bound_p99, prefix + "_p99_ms", s.p99,
        CountNote(s.count) + ", median of " + std::to_string(s.p99_blocks) +
            " block p99s");
  } else if (bound_p99) {
    // The contract needs the field; say the sample does not support it.
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    add(true, prefix + "_p99_ms", NearestRank(sorted, 99),
        CountNote(s.count) + ", fewer than 10 samples beyond the p99");
  }
}

void WriteTrace(const std::string& path, const LoadResult& served,
                const std::vector<EngineSpan>& engine,
                const std::vector<uint64_t>& engine_request,
                const SpanLog& replay) {
  std::ofstream out(path);
  auto line = [&](const char* src, const char* name, int64_t start,
                  int64_t end, int64_t parent, uint64_t request) {
    out << "{\"src\":\"" << src << "\",\"name\":\"" << name
        << "\",\"start_ns\":" << start << ",\"end_ns\":" << end
        << ",\"parent\":" << parent << ",\"request\":" << request << "}\n";
  };
  for (size_t i = 0; i < served.ops.size(); ++i) {
    const OpRecord& op = served.ops[i];
    line("client", OpKindName(op.kind), op.due_ns, op.recv_ns, -1, i + 1);
  }
  for (size_t i = 0; i < engine.size(); ++i) {
    line("engine", "algo.choose_cut", engine[i].start_ns, engine[i].end_ns, -1,
         engine_request[i]);
  }
  for (const Span& s : replay.spans()) {
    line("replay", s.name, s.start_ns, s.end_ns, s.parent, s.request);
  }
}

/// Joins the server's engine spans to the client EXPANDs that caused
/// them: same tree (size) and root, span inside the op's wire window.
/// Returns each engine span's request id (client op index + 1, 0 = none).
std::vector<uint64_t> JoinEngine(const LoadResult& served,
                                 const std::vector<EngineSpan>& engine,
                                 const std::vector<uint32_t>& nav_size_of) {
  std::map<std::pair<uint32_t, int32_t>, std::vector<size_t>> by_key;
  for (size_t e = 0; e < engine.size(); ++e) {
    by_key[{engine[e].nav_size, engine[e].root}].push_back(e);
  }
  for (auto& [key, list] : by_key) {
    std::sort(list.begin(), list.end(), [&](size_t a, size_t b) {
      return engine[a].start_ns < engine[b].start_ns;
    });
  }
  std::vector<uint64_t> request(engine.size(), 0);
  for (size_t i = 0; i < served.ops.size(); ++i) {
    const OpRecord& op = served.ops[i];
    if (op.kind != OpKind::kExpand || op.recv_ns == 0) continue;
    auto it = by_key.find({nav_size_of[i], op.node});
    if (it == by_key.end()) continue;
    for (size_t e : it->second) {
      if (request[e] == 0 && engine[e].start_ns >= op.sent_ns &&
          engine[e].end_ns <= op.recv_ns) {
        request[e] = i + 1;
        break;
      }
    }
  }
  return request;
}

/// One run's shared state, from set-up on.
struct Run {
  Args args;
  WorkloadDef def;
  Corpus corpus;
  std::unique_ptr<Tier> tier;
  std::string spill_root;
  StrategyFactory plain = MakeBioNavStrategyFactory();
  std::vector<double> setup_s;
  Traffic main;
  std::map<std::pair<uint32_t, uint32_t>, Script> scripts;
  std::vector<uint32_t> nav_size;  // Navigation-tree size per query.
  double session_s = 0;  // Longest session's think time.
  double drain_s = 0;
  Report report;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Mean navigation cost of the completed sessions (each one already
/// matched the oracle's cost and cut fingerprint); returns their count.
size_t NavCost(const LoadResult& load, double* cost) {
  double sum = 0;
  size_t done = 0;
  for (const SessionTally& s : load.sessions) {
    if (!s.completed) continue;
    sum += static_cast<double>(s.nav_cost);
    ++done;
  }
  *cost = done ? sum / static_cast<double>(done) : 0;
  return done;
}

/// Mean sessions in flight over a phase, by Little's law: the sum of
/// session lifetimes (first op due to last reply) over the phase's span.
/// Sets `*lifetime_s` to the mean lifetime.
double SessionsInFlight(const LoadResult& load, double* lifetime_s) {
  std::map<uint32_t, std::pair<int64_t, int64_t>> life;
  int64_t first = INT64_MAX, last = 0;
  for (const OpRecord& op : load.ops) {
    if (op.recv_ns == 0) continue;
    auto [it, fresh] = life.try_emplace(op.session, op.due_ns, op.recv_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, op.due_ns);
      it->second.second = std::max(it->second.second, op.recv_ns);
    }
    first = std::min(first, op.due_ns);
    last = std::max(last, op.recv_ns);
  }
  double sum_ns = 0;
  for (const auto& [session, span] : life) {
    sum_ns += static_cast<double>(span.second - span.first);
  }
  *lifetime_s = life.empty() ? 0 : sum_ns / 1e9 / life.size();
  return last > first ? sum_ns / static_cast<double>(last - first) : 0;
}

/// The end-to-end run: spans off.
void EndToEnd(Run& r) {
  const WorkloadDef& def = r.def;
  Traffic& main = r.main;
  Report& report = r.report;
  RunPhase(*r.tier, WarmupTraffic(main), r.drain_s, false);
  Phase phase = RunPhase(*r.tier, main, r.drain_s, false);
  const LoadResult& load = phase.load;
  OpStats ops = CollectOps(load, def.spill);
  double cost = 0;
  size_t done = NavCost(load, &cost);
  r.attempted = load.attempted;
  r.failed = load.failed();
  std::cout << "run: " << done << "/" << main.jobs.size()
            << " sessions completed, " << load.attempted << " ops in "
            << phase.seconds << " s; failed " << r.failed
            << (load.first_error.empty() ? "" : " (" + load.first_error + ")")
            << "\n";
  std::sort(ops.lag.begin(), ops.lag.end());
  double lag_p99 = NearestRank(ops.lag, 99);
  if (lag_p99 > kGenLagBoundMs) {
    std::cout << "generator fell behind its " << kGenLagBoundMs
              << " ms bound\n";
    r.correct = false;
  }
  std::cout << "end-to-end metrics:\n";
  AddLatency(&report, "query", ops.by_kind[0], true, false);
  AddLatency(&report, "expand", ops.by_kind[1], true, false);
  AddLatency(&report, "show", ops.by_kind[2], true, false);
  report.Add("nav_cost_per_session", cost, "count", CountNote(done));
  report.Add("setup_s", Median(r.setup_s), "s",
             "median of " + std::to_string(kSetupReps));
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("failed_op_share",
              load.attempted ? static_cast<double>(load.failed()) /
                                   static_cast<double>(load.attempted)
                             : 0,
              "ratio", CountNote(static_cast<size_t>(load.attempted)));
  if (ops.cold_query.size() >= 20) {
    AddLatency(&report, "query_cold", ops.cold_query, false, false);
  }
  if (def.spill) AddLatency(&report, "resume", ops.resume, false, false);
  AddLatency(&report, "backtrack", ops.by_kind[3], false, false);
  AddLatency(&report, "close", ops.by_kind[4], false, false);
  report.Info("bench.gen_lag_p99_ms", lag_p99, "ms");
  double lifetime_s = 0;
  double in_flight = SessionsInFlight(load, &lifetime_s);
  report.Info("bench.session_lifetime_s", lifetime_s, "s");
  report.Info("bench.sessions_in_flight_mean", in_flight, "count",
              "Little's law over the measured sessions");
  if (def.spill) {
    report.Info("persist.restored_per_resume",
                (phase.after.restored - phase.before.restored) /
                    std::max<double>(1, ops.resume.size()),
                "ratio");
  }
}

/// The traced run: an untraced baseline on the workload's tier (counters,
/// max-rate search), the same traffic with the ChooseEdgeCut subclass and
/// client spans, the same traffic through the router (its relay cost),
/// then the in-process replay of the traced op sequence.
Status Traced(Run& r) {
  const WorkloadDef& def = r.def;
  Traffic& main = r.main;
  Report& report = r.report;
  Corpus& corpus = r.corpus;
  RunPhase(*r.tier, WarmupTraffic(main), r.drain_s, false);
  Phase base = RunPhase(*r.tier, main, r.drain_s, false, true);
  SweepResult sweep =
      MaxRate(*r.tier, main, WorstRatio(base.load), r.session_s, r.drain_s,
              r.args.seed);
  r.attempted += sweep.attempted;
  r.failed += sweep.bad;
  std::cout << "max-rate probes (sessions/s: worst p99/limit):";
  for (auto& [rate, ratio] : sweep.probes) {
    std::cout << " " << std::setprecision(4) << rate << ":" << ratio;
  }
  std::cout << "\n";
  r.tier.reset();
  EngineTrace engine_trace;
  auto started = StartTier(
      corpus, MakeTierConfig(def, false, r.spill_root + "/traced",
                             TracedFactory(&engine_trace)));
  if (!started.ok()) return started.status();
  r.tier = started.TakeValue();
  RunPhase(*r.tier, WarmupTraffic(main), r.drain_s, false);
  Phase traced = RunPhase(*r.tier, main, r.drain_s, true);
  double template_hits = 0, template_renders = 0;
  for (const auto& server : r.tier->servers()) {
    const QueryArtifactCache* cache = server->session_manager().cache();
    for (const QueryEntry& q : corpus.universe) {
      auto bundle = cache->Peek(NormalizeQueryKey(q.query));
      if (bundle == nullptr) continue;
      ResponseTemplateStore::Stats ts = bundle->templates.stats();
      template_hits += ts.hits;
      template_renders += ts.renders[0] + ts.renders[1];
    }
  }
  r.tier.reset();
  std::vector<EngineSpan> engine = engine_trace.Take();
  started = StartTier(corpus, MakeTierConfig(def, true,
                                             r.spill_root + "/routed", r.plain));
  if (!started.ok()) return started.status();
  r.tier = started.TakeValue();
  RunPhase(*r.tier, WarmupTraffic(main), r.drain_s, false);
  Phase routed = RunPhase(*r.tier, main, r.drain_s, false);
  r.tier.reset();

  ReplayInput rin;
  rin.workload = corpus.workload.get();
  rin.eutils = corpus.eutils.get();
  rin.cache_bytes = def.cache_bytes;
  if (def.spill) rin.spill_dir = r.spill_root + "/replay";
  rin.warm = corpus.warm;
  rin.jobs = &main.jobs;
  rin.ops = &traced.load.ops;
  int64_t replay_start = NowNs();
  ReplayResult replay = Replay(rin);
  std::cout << "replay: " << replay.ops << " ops in process in "
            << (NowNs() - replay_start) / 1e6 << " ms, "
            << replay.mismatches << " mismatches"
            << (replay.first_error.empty() ? ""
                                           : " (" + replay.first_error + ")")
            << "\n";

  for (const Phase* p : {&base, &traced, &routed}) {
    r.attempted += p->load.attempted;
    r.failed += p->load.failed();
    if (!p->load.first_error.empty()) {
      std::cout << "served-run error: " << p->load.first_error << "\n";
    }
  }
  r.attempted += replay.ops;
  r.failed += replay.mismatches;

  // Per-op derived numbers from the traced served run. The wire figures
  // are a cross-run estimate: the served op's send->reply time minus the
  // replay's in-process span of the same op.
  std::vector<uint32_t> op_nav_size(traced.load.ops.size());
  std::vector<double> wire_query, wire_expand;
  double client_ns[kNumOpKinds] = {};
  for (size_t i = 0; i < traced.load.ops.size(); ++i) {
    const OpRecord& op = traced.load.ops[i];
    op_nav_size[i] = r.nav_size[main.jobs[op.session].plan.query];
    if (op.recv_ns == 0) continue;
    double wire_ns = static_cast<double>(op.recv_ns - op.sent_ns);
    double in_process = static_cast<double>(replay.op_span_ns[i]);
    client_ns[static_cast<int>(op.kind)] += wire_ns;
    if (op.kind == OpKind::kQuery) {
      wire_query.push_back((wire_ns - in_process) / 1e3);
    }
    if (op.kind == OpKind::kExpand) {
      wire_expand.push_back((wire_ns - in_process) / 1e3);
    }
  }
  // Request decode, timed over the traced run's own request frames.
  std::vector<double> decode_ns;
  for (const std::string& frame : traced.load.frames) {
    constexpr int kRepeat = 8;
    RequestView view;
    std::string error;
    int64_t t = NowNs();
    for (int k = 0; k < kRepeat; ++k) {
      if (ParseRequestBinary(frame, &view, &error) != WireError::kNone) {
        ++r.failed;
      }
    }
    decode_ns.push_back(static_cast<double>(NowNs() - t) / kRepeat);
  }
  double decode_p50 = Summarize(decode_ns).p50;
  std::vector<uint64_t> engine_request =
      JoinEngine(traced.load, engine, op_nav_size);
  std::vector<double> cut_us, cold_us, memo_us, reduced;
  double memo_hits = 0, joined = 0;
  for (size_t e = 0; e < engine.size(); ++e) {
    double us = (engine[e].end_ns - engine[e].start_ns) / 1e3;
    cut_us.push_back(us);
    (engine[e].memo_hit ? memo_us : cold_us).push_back(us);
    memo_hits += engine[e].memo_hit;
    reduced.push_back(engine[e].reduced_size);
    joined += engine_request[e] != 0;
  }

  OpStats base_ops = CollectOps(base.load, false);
  OpStats traced_ops = CollectOps(traced.load, false);
  OpStats routed_ops = CollectOps(routed.load, false);
  std::sort(base_ops.lag.begin(), base_ops.lag.end());
  double lag_p99 = NearestRank(base_ops.lag, 99);

  const Counters& b0 = base.before;
  const Counters& b1 = base.after;
  double served_ops = std::max(1.0, static_cast<double>(base.load.ops.size()));
  double lookups = (b1.cache_hits - b0.cache_hits) +
                   (b1.cache_misses - b0.cache_misses);
  const Counters& r1 = routed.after;
  // Distinct keys the routed tier saw (warm-up plus traffic).
  std::set<std::string> distinct(corpus.warm.begin(), corpus.warm.end());
  for (const SessionJob& job : main.jobs) distinct.insert(*job.query);
  const double keys = static_cast<double>(distinct.size());

  auto p50 = [](const std::vector<double>& v) { return Summarize(v).p50; };
  std::cout << "phase medians (ms, all ops / query / expand): untraced "
            << Median(base_ops.all) << " / " << p50(base_ops.by_kind[0])
            << " / " << p50(base_ops.by_kind[1]) << "; traced "
            << Median(traced_ops.all) << " / " << p50(traced_ops.by_kind[0])
            << " / " << p50(traced_ops.by_kind[1]) << "; routed "
            << Median(routed_ops.all) << "\n";
  auto p99 = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return NearestRank(v, 99);
  };
  std::cout << "per-layer metrics:\n";
  auto& m = replay.metrics;
  auto add_replay = [&](const std::string& name, const std::string& unit) {
    report.Add(name, m[name], unit, replay.notes[name]);
  };
  add_replay("medline.esearch_us_p50", "us");
  add_replay("core.tree_build_us_p50", "us");
  add_replay("core.freeze_us_p50", "us");
  add_replay("core.artifact_kb_mean", "KB");
  add_replay("core.apply_cut_us_p50", "us");
  report.Add("algo.choose_cut_us_p50", p50(cut_us), "us",
             CountNote(cut_us.size()));
  Summary cut = Summarize(cut_us);
  report.Add("algo.choose_cut_us_p99", cut.has_p99 ? cut.p99 : p99(cut_us),
             "us",
             CountNote(cut.count) +
                 (cut.has_p99 ? "" : ", fewer than 10 samples beyond the p99"));
  report.Add("algo.cold_cut_us_p50", p50(cold_us), "us",
             CountNote(cold_us.size()));
  report.Add("algo.memo_replay_us_p50", p50(memo_us), "us",
             CountNote(memo_us.size()));
  report.Add("algo.memo_hit_share",
             engine.empty() ? 0 : memo_hits / engine.size(), "ratio");
  report.Add("algo.reduced_size_mean", Mean(reduced), "count");
  report.Add("cache.hit_share",
             lookups > 0 ? (b1.cache_hits - b0.cache_hits) / lookups : 0,
             "ratio");
  report.Add("cache.builds", b1.builds - b0.builds, "count");
  report.Add("cache.build_waits", b1.cache_waits - b0.cache_waits, "count");
  report.Add("cache.evictions", b1.cache_evictions - b0.cache_evictions,
             "count");
  report.Add("cache.resident_mb", b1.cache_bytes / (1024.0 * 1024.0), "MB");
  add_replay("cache.lookup_hit_us_p50", "us");
  report.Add("cache.template_hit_share",
             template_hits + template_renders > 0
                 ? template_hits / (template_hits + template_renders)
                 : 0,
             "ratio");
  add_replay("sim.expand_us_p50", "us");
  add_replay("sim.show_us_p50", "us");
  add_replay("server.create_session_us_p50", "us");
  add_replay("server.lock_wait_us_p50", "us");
  add_replay("server.lock_wait_us_p99", "us");
  for (const auto& [name, wire] :
       {std::pair<const char*, const std::vector<double>*>{
            "server.wire_us_p50.query", &wire_query},
        {"server.wire_us_p50.expand", &wire_expand}}) {
    double v = p50(*wire);
    report.Add(name, v, "us",
               CountNote(wire->size()) +
                   ", cross-run estimate: served op minus replayed op");
    if (v < 0) {
      std::cout << name << " is negative: the replay's in-process span "
                   "exceeds the served op\n";
      r.correct = false;
    }
  }
  report.Add("server.decode_ns_p50", decode_p50, "ns",
             CountNote(decode_ns.size()));
  report.Add("server.tx_bytes_per_op", (b1.bytes_tx - b0.bytes_tx) / served_ops,
             "bytes");
  report.Add("server.rx_bytes_per_op", (b1.bytes_rx - b0.bytes_rx) / served_ops,
             "bytes");
  report.Add("server.wakeups_per_op", (b1.wakeups - b0.wakeups) / served_ops,
             "count");
  report.Add("server.shed", b1.shed - b0.shed, "count");
  report.Add("server.session_heap_mb", base.heap_mb_max, "MB");
  report.Info("server.sessions_resident_max", base.resident_sessions_max,
              "count", "highest sample, every 100 ms");
  report.Add("router.relay_us_p50.query",
             (p50(routed_ops.by_kind[0]) - p50(base_ops.by_kind[0])) * 1e3,
             "us");
  report.Add("router.relay_us_p50.expand",
             (p50(routed_ops.by_kind[1]) - p50(base_ops.by_kind[1])) * 1e3,
             "us");
  report.Add("router.fleet_builds_per_key", r1.builds / keys, "ratio");
  report.Add("router.peer_fetch_hits", r1.peer_fetch_hits, "count");
  add_replay("router.codec_decode_us_p50", "us");
  report.Add("router.backend_skew", routed.backend_skew, "ratio");
  add_replay("persist.snapshot_encode_us_p50", "us");
  add_replay("persist.snapshot_bytes_mean", "bytes");
  add_replay("persist.restore_us_p50", "us");
  add_replay("persist.restore_us_p99", "us");
  report.Add("persist.spilled", b1.spilled - b0.spilled, "count");
  report.Add("persist.restored", b1.restored - b0.restored, "count");
  report.Add("persist.restore_failed", b1.restore_failed - b0.restore_failed,
             "count");
  double base_med = Median(base_ops.all);
  report.Add("obs.trace_overhead_share",
             base_med > 0 ? (Median(traced_ops.all) - base_med) / base_med : 0,
             "ratio");
  // Stage-sum check on the same served ops: the server's handler time
  // (decode, pool hand-off and flush excluded) over the client's
  // send->reply time.
  for (int k : {0, 1, 2}) {
    double handler_ns =
        (traced.after.handler_us[k] - traced.before.handler_us[k]) * 1e3;
    double coverage = client_ns[k] > 0 ? handler_ns / client_ns[k] : 0;
    if (coverage <= 0 || coverage > kCoverageMax) {
      std::cout << "trace coverage of " << OpKindName(static_cast<OpKind>(k))
                << " outside (0, " << kCoverageMax << "]\n";
      r.correct = false;
    }
    report.Add(std::string("bench.trace_coverage.") +
                   OpKindName(static_cast<OpKind>(k)),
               coverage, "ratio",
               "server handler time / client send->reply, same ops");
  }
  report.Add("bench.gen_lag_p99_ms", lag_p99, "ms");
  report.Add("max_rate_sps", sweep.max_rate, "sessions/s",
             "p99 limit " + std::to_string(static_cast<int>(kP99LimitMs)) +
                 " ms");
  // The untraced baseline's tails: tracked here, too noisy to bound.
  for (int k : {0, 1, 2}) {
    Summary s = Summarize(base_ops.by_kind[k]);
    report.Add(std::string(OpKindName(static_cast<OpKind>(k))) + "_p99_ms",
               s.p99, "ms",
               s.has_p99 ? CountNote(s.count) + ", median of " +
                               std::to_string(s.p99_blocks) + " block p99s"
                         : CountNote(s.count) + ", no supported p99");
  }
  report.Info("bench.engine_join_share",
              engine.empty() ? 0 : joined / engine.size(), "ratio");
  if (b1.restore_failed - b0.restore_failed > 0) r.correct = false;
  if (lag_p99 > kGenLagBoundMs) r.correct = false;
  // One dump per workload, overwritten by the next traced run.
  std::string trace_path = r.args.out + "/trace-" + def.name + ".jsonl";
  WriteTrace(trace_path, traced.load, engine, engine_request, replay.log);
  std::cout << "trace: " << traced.load.ops.size() << " client, "
            << engine.size() << " engine and " << replay.log.spans().size()
            << " replay spans written to " << trace_path << "\n";
  return Status::OK();
}

/// Set-up, timed kSetupReps times (database, tier start, cache warm-up);
/// the last system built is kept.
Status SetUp(Run& r) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    r.tier.reset();
    r.corpus = Corpus();
    // Hand the freed heap back, so every repetition starts alike and the
    // high-water mark is one system's, not the sum of the leftovers.
    ::malloc_trim(0);
    int64_t t = NowNs();
    Result<Corpus> made = MakeCorpus(r.def);
    if (!made.ok()) return made.status();
    r.corpus = made.TakeValue();
    auto started = StartTier(r.corpus, MakeTierConfig(r.def, false,
                                                      r.spill_root + "/main",
                                                      r.plain));
    if (!started.ok()) return started.status();
    r.tier = started.TakeValue();
    r.setup_s.push_back((NowNs() - t) / 1e9);
  }
  std::cout << "workload " << r.def.name << " (seed " << r.args.seed
            << "): " << r.def.why << "\n";
  std::cout << "system: " << r.tier->Describe() << "; threads: "
            << r.tier->threads() << " in the tier + 1 generator ("
            << kConnections << " pipelined binary v2 connections)\n";
  return Status::OK();
}

/// The seeded traffic, and one oracle script per distinct (query, shape).
Status MakeTraffic(Run& r) {
  const WorkloadDef& def = r.def;
  const Corpus& corpus = r.corpus;
  Traffic& main = r.main;
  main.spec.rate_sps = def.rate_sps;
  main.spec.arrive_s = r.args.seconds;
  main.spec.universe = corpus.universe.size();
  main.spec.zipf_s = def.zipf_s;
  main.spec.patterns = PatternCount(def.shape);
  main.spec.think_min_ms = def.think_min_ms;
  main.spec.think_max_ms = def.think_max_ms;
  main.spec.seed = r.args.seed;
  const std::vector<SessionPlan> plans = MakeSchedule(main.spec);
  r.nav_size.assign(corpus.universe.size(), 0);
  double drawn_mb = 0;
  int64_t t = NowNs();
  for (const SessionPlan& p : plans) r.scripts[{p.query, p.pattern}];
  std::shared_ptr<const QueryArtifacts> artifacts;
  uint32_t built = UINT32_MAX;
  for (auto& [key, script] : r.scripts) {
    const std::string& query = corpus.universe[key.first].query;
    if (built != key.first) {
      artifacts = BuildQueryArtifacts(corpus.workload->hierarchy(),
                                      *corpus.eutils, query, CostModelParams(),
                                      true);
      built = key.first;
      r.nav_size[key.first] = static_cast<uint32_t>(artifacts->nav->size());
      drawn_mb += artifacts->MemoryFootprint() / (1024.0 * 1024.0);
    }
    auto made = OracleScript(*corpus.eutils, artifacts, query, def.shape,
                             key.second, r.plain);
    if (!made.ok()) return made.status();
    script = made.TakeValue();
  }
  artifacts.reset();
  ::malloc_trim(0);
  std::cout << "oracle: " << r.scripts.size()
            << " distinct sessions scripted in process in "
            << (NowNs() - t) / 1e6 << " ms\n";
  for (const SessionPlan& p : plans) {
    main.jobs.push_back({p, &corpus.universe[p.query].query,
                         &r.scripts.at({p.query, p.pattern})});
  }
  r.session_s = SessionSeconds(def, r.scripts);
  r.drain_s = 2 * r.session_s + 2;
  std::cout << "traffic: " << main.jobs.size() << " sessions arriving "
            << "open-loop (Poisson) at " << main.spec.rate_sps
            << " sessions/s for " << r.args.seconds << " s over "
            << corpus.universe.size() << " queries ("
            << (def.zipf_s > 0 ? "Zipf s=" + std::to_string(def.zipf_s)
                               : std::string("uniform"))
            << "), think " << def.think_min_ms << "-" << def.think_max_ms
            << " ms\n";
  std::cout << "cache: budget " << (def.cache_bytes >> 20)
            << " MB; artifacts of the queries drawn: " << drawn_mb << " MB\n";
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::cerr << "usage: navbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n";
    return 2;
  }
  const std::vector<WorkloadDef> defs = Workloads();
  auto def = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == run.args.workload;
  });
  if (def == defs.end()) {
    std::cerr << "navbench: unknown workload '" << run.args.workload << "'\n";
    return 2;
  }
  run.def = *def;
  std::error_code ec;
  std::filesystem::create_directories(run.args.out, ec);
  run.spill_root = run.args.out + "/spill-" + std::to_string(::getpid());
  Status status = SetUp(run);
  if (status.ok()) status = MakeTraffic(run);
  if (status.ok()) {
    if (run.args.trace == 0) {
      EndToEnd(run);
    } else {
      status = Traced(run);
    }
  }
  run.tier.reset();
  std::filesystem::remove_all(run.spill_root, ec);
  if (!status.ok()) {
    std::cerr << "navbench: " << status.ToString() << "\n";
    return 1;
  }
  if (run.failed > 0) run.correct = false;
  std::cout << run.report.Json(run.correct, run.attempted, run.failed)
            << std::endl;
  return 0;
}
