// Tracing from the benchmark's side: a Heuristic-ReducedOpt subclass that
// spans every ChooseEdgeCut (handed to the server through its
// StrategyFactory), and an in-process replay of a run's op sequence
// through SessionManager, QueryArtifactCache, the medline/core build
// steps, persist and the artifact codec, with a span around each call.
#ifndef NAVBENCH_REPLAY_H_
#define NAVBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bionav.h"
#include "loadgen.h"
#include "schedule.h"
#include "stats.h"

namespace navbench {

/// One ChooseEdgeCut call as seen from outside the engine.
struct EngineSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t root = -1;
  uint32_t nav_size = 0;  // Navigation-tree size: tells queries apart.
  bool memo_hit = false;  // ExpandStats::incremental_hit.
  int reduced_size = 0;   // ExpandStats::reduced_tree_size.
};

/// Thread-safe sink of engine spans (server workers record concurrently).
class EngineTrace {
 public:
  void Add(const EngineSpan& span);
  std::vector<EngineSpan> Take();
  /// The most recent span (single-threaded replay use).
  EngineSpan Last();

 private:
  std::mutex mu_;
  std::vector<EngineSpan> spans_;
};

/// The BioNav policy with every ChooseEdgeCut spanned into `sink`.
bionav::StrategyFactory TracedFactory(EngineTrace* sink);

/// What the replay needs from the served run.
struct ReplayInput {
  const bionav::Workload* workload = nullptr;
  const bionav::EUtilsClient* eutils = nullptr;
  size_t cache_bytes = 0;
  /// Spill directory for a spilling workload (empty = spill off).
  std::string spill_dir;
  /// Queries issued during set-up, replayed first so the caches start in
  /// the served run's state.
  std::vector<std::string> warm;
  const std::vector<SessionJob>* jobs = nullptr;
  /// The served run's ops in send order.
  const std::vector<OpRecord>* ops = nullptr;
};

struct ReplayResult {
  SpanLog log;
  /// In-process span of each served op (same index as ReplayInput::ops):
  /// CreateSession for QUERY, WithSession for the rest (a restore of the
  /// parked session included, with spill on), Close for CLOSE.
  std::vector<int64_t> op_span_ns;
  /// Per-layer numbers the replay measures, by metric name, and the
  /// sample count behind each percentile.
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;
  int64_t ops = 0;
  int64_t mismatches = 0;
  std::string first_error;
};

ReplayResult Replay(const ReplayInput& input);

}  // namespace navbench

#endif  // NAVBENCH_REPLAY_H_
