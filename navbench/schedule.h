// Open-loop traffic of the serving benchmark: seeded session arrivals,
// query draws and think pauses, plus the per-session op scripts the
// in-process oracle derives for them.
#ifndef NAVBENCH_SCHEDULE_H_
#define NAVBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace navbench {

/// Wire ops a session issues. QUERY opens it, CLOSE ends it.
enum class OpKind : uint8_t { kQuery, kExpand, kShow, kBacktrack, kClose };
inline constexpr int kNumOpKinds = 5;
const char* OpKindName(OpKind kind);

/// One scripted op and the digest of the reply the oracle expects.
struct ScriptOp {
  OpKind kind = OpKind::kQuery;
  int32_t node = -1;  // EXPAND / SHOWRESULTS target.
  uint64_t expect = 0;
};

/// A whole session as the oracle runs it in process: the ops in order
/// (QUERY first, CLOSE last), and the paper's navigation cost (EXPANDs +
/// concepts revealed) and FNV-1a cut fingerprint the wire must reproduce.
struct Script {
  std::vector<ScriptOp> ops;
  int64_t nav_cost = 0;
  uint64_t fingerprint = 0;
};

/// FNV-1a over 64-bit words, the cut-fingerprint and reply-digest hash.
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

/// Traffic shape of one measured phase.
struct ScheduleSpec {
  /// Offered session arrival rate (Poisson) and the window sessions
  /// arrive in.
  double rate_sps = 100;
  double arrive_s = 5;
  /// Query universe size and popularity: Zipf(zipf_s) over ranks, or
  /// uniform when zipf_s is 0.
  size_t universe = 1;
  double zipf_s = 0;
  /// Session shapes per query, drawn uniformly (the workload maps a
  /// pattern index to target concepts or EXPAND counts).
  uint32_t patterns = 1;
  /// Think pause between a reply and the session's next op, uniform in
  /// [think_min_ms, think_max_ms].
  double think_min_ms = 0;
  double think_max_ms = 0;
  uint64_t seed = 1;
};

struct SessionPlan {
  int64_t arrival_ns = 0;  // Offset from the phase start.
  uint32_t query = 0;
  uint32_t pattern = 0;
  uint64_t think_seed = 0;
};

/// The phase's sessions in arrival order; a pure function of the spec.
std::vector<SessionPlan> MakeSchedule(const ScheduleSpec& spec);

/// Think pause before op `op_index` (>= 1) of a session; a pure function
/// of the session's think seed and the spec.
int64_t ThinkNs(const ScheduleSpec& spec, uint64_t think_seed,
                size_t op_index);

}  // namespace navbench

#endif  // NAVBENCH_SCHEDULE_H_
