#include "replay.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "persist/session_snapshot.h"
#include "universe.h"

namespace navbench {

using namespace bionav;

void EngineTrace::Add(const EngineSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<EngineSpan> EngineTrace::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

EngineSpan EngineTrace::Last() {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.empty() ? EngineSpan() : spans_.back();
}

namespace {

class TracedStrategy : public HeuristicReducedOpt {
 public:
  TracedStrategy(const CostModel* cost_model, EngineTrace* sink)
      : HeuristicReducedOpt(cost_model), sink_(sink) {}

  EdgeCut ChooseEdgeCut(const ActiveTree& active, NavNodeId root) override {
    EngineSpan span;
    span.start_ns = NowNs();
    EdgeCut cut = HeuristicReducedOpt::ChooseEdgeCut(active, root);
    span.end_ns = NowNs();
    span.root = root;
    span.nav_size = static_cast<uint32_t>(active.nav().size());
    span.memo_hit = last_stats().incremental_hit;
    span.reduced_size = last_stats().reduced_tree_size;
    sink_->Add(span);
    return cut;
  }

 private:
  EngineTrace* sink_;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Samples per span name, in microseconds.
using Samples = std::map<std::string, std::vector<double>>;

}  // namespace

StrategyFactory TracedFactory(EngineTrace* sink) {
  return [sink](const CostModel* model) -> std::unique_ptr<ExpandStrategy> {
    return std::make_unique<TracedStrategy>(model, sink);
  };
}

ReplayResult Replay(const ReplayInput& in) {
  ReplayResult r;
  SpanLog& log = r.log;
  const ConceptHierarchy& hierarchy = in.workload->hierarchy();
  EngineTrace engine;
  Samples us;
  std::vector<double> footprint_kb, snapshot_bytes;
  std::unordered_map<std::string, bool> decoded_keys;
  // Parent span and request of the build the manager may run next.
  int64_t build_parent = -1;
  uint64_t build_req = 0;
  auto fail = [&](const std::string& message) {
    ++r.mismatches;
    if (r.first_error.empty()) r.first_error = message;
  };

  // BuildQueryArtifacts, one spanned step at a time. It runs as the
  // manager's peer fetcher: inside its own cache's singleflight, under the
  // span of the op that missed.
  auto build = [&](const std::string& key) {
    auto artifacts = std::make_shared<QueryArtifacts>();
    artifacts->key = key;
    int64_t s = log.Begin("medline.esearch", build_parent, build_req);
    std::vector<CitationId> ids = in.eutils->ESearch(key);
    log.End(s);
    artifacts->result = std::make_shared<const ResultSet>(std::move(ids));
    s = log.Begin("core.tree_build", build_parent, build_req);
    auto nav = std::make_shared<NavigationTree>(
        hierarchy, in.eutils->associations(), artifacts->result);
    log.End(s);
    s = log.Begin("core.freeze", build_parent, build_req);
    nav->Freeze();
    log.End(s);
    s = log.Begin("core.cost_model", build_parent, build_req);
    artifacts->cost_model =
        std::make_shared<const CostModel>(nav.get(), CostModelParams());
    log.End(s);
    artifacts->nav = std::move(nav);
    footprint_kb.push_back(artifacts->MemoryFootprint() / 1024.0);
    if (!decoded_keys[artifacts->key]) {
      // What a peer shard does with a FETCH_ARTIFACT reply.
      decoded_keys[artifacts->key] = true;
      std::string record = artifacts->Serialize();
      s = log.Begin("router.codec_decode", build_parent, build_req);
      auto decoded = QueryArtifacts::Deserialize(hierarchy, record);
      log.End(s);
      if (!decoded.ok()) {
        fail("artifact codec: " + decoded.status().ToString());
      }
    }
    return std::shared_ptr<const QueryArtifacts>(std::move(artifacts));
  };

  SessionManagerOptions sm_options;
  sm_options.max_sessions = size_t{1} << 20;
  sm_options.ttl_ms = 0;
  sm_options.cache_max_bytes = in.cache_bytes;
  sm_options.peer_fetcher = build;
  // With spill on, the clock steps past the spill threshold before every
  // op after QUERY and the idle sessions are parked, so the op restores
  // its session as the served run's ops mostly do.
  int64_t now_ms = 0;
  const bool spill = !in.spill_dir.empty();
  if (spill) {
    sm_options.spill_dir = in.spill_dir;
    sm_options.spill_after_ms = 1;
    sm_options.clock = [&now_ms] { return now_ms; };
  }
  SessionManager sessions(&hierarchy, in.eutils, TracedFactory(&engine),
                          sm_options);

  for (const std::string& query : in.warm) {
    auto created = sessions.CreateSession(query);
    if (created.ok()) sessions.Close(created.ValueOrDie().token);
  }

  const std::vector<SessionJob>& jobs = *in.jobs;
  std::vector<std::string> tokens(jobs.size());
  r.op_span_ns.assign(in.ops->size(), 0);
  for (size_t i = 0; i < in.ops->size(); ++i) {
    const OpRecord& op = (*in.ops)[i];
    const SessionJob& job = jobs[op.session];
    const ScriptOp& script_op = job.script->ops[op.index];
    const uint64_t req = i + 1;
    const std::string& token = tokens[op.session];
    ++r.ops;
    if (op.kind == OpKind::kQuery) {
      int64_t span = log.Begin("server.create_session", -1, req);
      build_parent = span;
      build_req = req;
      auto created = sessions.CreateSession(*job.query);
      log.End(span);
      r.op_span_ns[i] = log.spans()[span].duration_ns();
      us["server.create_session"].push_back(Us(r.op_span_ns[i]));
      if (!created.ok() ||
          created.ValueOrDie().result_size != script_op.expect) {
        fail("replay QUERY differs from the oracle");
        continue;
      }
      tokens[op.session] = created.ValueOrDie().token;
      continue;
    }
    if (op.kind == OpKind::kClose) {
      // Park and restore the session as the spill tier would, then close.
      SessionSnapshot snapshot;
      build_parent = -1;
      build_req = req;
      sessions.WithSession(token, [&](NavigationSession& session) {
        snapshot = SnapshotSession(session, token, 0);
        return Status::OK();
      });
      int64_t span = log.Begin("persist.snapshot_encode", -1, req);
      std::string record = EncodeSnapshot(snapshot);
      log.End(span);
      us["persist.snapshot_encode"].push_back(
          Us(log.spans()[span].duration_ns()));
      snapshot_bytes.push_back(static_cast<double>(record.size()));
      span = log.Begin("persist.restore", -1, req);
      auto decoded = DecodeSnapshot(record);
      Result<std::unique_ptr<NavigationSession>> restored =
          Status::DataLoss("undecodable snapshot");
      if (decoded.ok()) {
        // The manager's own cache, as its restore path reads it. (A miss
        // builds there without spans; the restore span still covers it.)
        const int64_t hits = sessions.cache()->stats().hits;
        int64_t get = log.Begin("cache.get_or_build", span, req);
        auto artifacts = sessions.ArtifactsForKey(
            NormalizeQueryKey(decoded.ValueOrDie().query));
        log.End(get);
        if (sessions.cache()->stats().hits > hits) {
          us["cache.lookup_hit"].push_back(
              Us(log.spans()[get].duration_ns()));
        }
        if (artifacts.ok()) {
          restored = RestoreSession(decoded.ValueOrDie(), in.eutils,
                                    artifacts.TakeValue(),
                                    TracedFactory(&engine));
        }
      }
      log.End(span);
      us["persist.restore"].push_back(Us(log.spans()[span].duration_ns()));
      if (!restored.ok() || restored.ValueOrDie()->expand_log().size() !=
                                snapshot.expands.size()) {
        fail("replay restore differs from the parked session");
      }
      span = log.Begin("server.close", -1, req);
      bool closed = sessions.Close(token);
      log.End(span);
      r.op_span_ns[i] = log.spans()[span].duration_ns();
      if (!closed) fail("replay CLOSE found no session");
      continue;
    }
    if (spill) {
      now_ms += 2;
      sessions.SpillIdle();
    }
    uint64_t got = 0;
    int64_t outer = log.Begin("server.with_session", -1, req);
    build_parent = outer;
    build_req = req;
    int64_t callback_span = -1;
    Status status = sessions.WithSession(token, [&](NavigationSession& s) {
      callback_span = log.Begin("server.callback", outer, req);
      if (op.kind == OpKind::kExpand) {
        int64_t span = log.Begin("sim.expand", callback_span, req);
        auto revealed = s.Expand(script_op.node);
        log.End(span);
        EngineSpan cut = engine.Last();
        Span child;
        child.name = "algo.choose_cut";
        child.start_ns = cut.start_ns;
        child.end_ns = cut.end_ns;
        child.parent = span;
        child.request = req;
        log.mutable_spans().push_back(child);
        if (revealed.ok()) got = RevealedDigest(revealed.ValueOrDie());
        const std::vector<Span>& all = log.spans();
        us["sim.expand"].push_back(Us(all[span].duration_ns()));
        us["core.apply_cut"].push_back(
            Us(SelfTimeNs(all, span, {static_cast<int64_t>(all.size()) - 1})));
      } else if (op.kind == OpKind::kShow) {
        int64_t span = log.Begin("sim.show", callback_span, req);
        auto shown = s.ShowResults(script_op.node, 0, 20);
        log.End(span);
        us["sim.show"].push_back(Us(log.spans()[span].duration_ns()));
        if (shown.ok()) {
          std::vector<uint64_t> pmids;
          for (const CitationSummary& c : shown.ValueOrDie()) {
            pmids.push_back(c.pmid);
          }
          got = ShowDigest(pmids.size(), pmids);
        }
      } else {
        got = s.Backtrack() ? 1 : 0;
      }
      log.End(callback_span);
      return Status::OK();
    });
    log.End(outer);
    const std::vector<Span>& all = log.spans();
    r.op_span_ns[i] = all[outer].duration_ns();
    if (callback_span >= 0) {
      us["server.lock_wait"].push_back(
          Us(all[outer].duration_ns() - all[callback_span].duration_ns()));
    }
    if (!status.ok() || got != script_op.expect) {
      fail(std::string("replay ") + OpKindName(op.kind) +
           " differs from the oracle");
    }
  }

  // Build-step samples come from every build, warm-up included: for the
  // pre-warmed workloads those are the only builds there are.
  for (const Span& span : log.spans()) {
    const std::string name = span.name;
    if (name == "medline.esearch" || name == "core.tree_build" ||
        name == "core.freeze" || name == "router.codec_decode") {
      us[name].push_back(Us(span.duration_ns()));
    }
  }
  auto p50 = [&](const std::string& name) {
    r.notes[name + "_us_p50"] = "n=" + std::to_string(us[name].size());
    return Summarize(us[name]).p50;
  };
  auto p99 = [&](const std::string& name) {
    Summary s = Summarize(us[name]);
    std::string& note = r.notes[name + "_us_p99"];
    note = "n=" + std::to_string(s.count);
    if (s.has_p99) return s.p99;
    note += ", fewer than 10 samples beyond the p99";
    std::vector<double> v = us[name];
    std::sort(v.begin(), v.end());
    return NearestRank(v, 99);
  };
  r.metrics["medline.esearch_us_p50"] = p50("medline.esearch");
  r.metrics["core.tree_build_us_p50"] = p50("core.tree_build");
  r.metrics["core.freeze_us_p50"] = p50("core.freeze");
  r.metrics["core.artifact_kb_mean"] = Mean(footprint_kb);
  r.metrics["core.apply_cut_us_p50"] = p50("core.apply_cut");
  r.metrics["cache.lookup_hit_us_p50"] = p50("cache.lookup_hit");
  r.metrics["sim.expand_us_p50"] = p50("sim.expand");
  r.metrics["sim.show_us_p50"] = p50("sim.show");
  r.metrics["server.create_session_us_p50"] = p50("server.create_session");
  r.metrics["server.lock_wait_us_p50"] = p50("server.lock_wait");
  r.metrics["server.lock_wait_us_p99"] = p99("server.lock_wait");
  r.metrics["router.codec_decode_us_p50"] = p50("router.codec_decode");
  r.metrics["persist.snapshot_encode_us_p50"] = p50("persist.snapshot_encode");
  r.metrics["persist.snapshot_bytes_mean"] = Mean(snapshot_bytes);
  r.metrics["persist.restore_us_p50"] = p50("persist.restore");
  r.metrics["persist.restore_us_p99"] = p99("persist.restore");
  return r;
}

}  // namespace navbench
