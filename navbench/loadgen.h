// Open-loop load generator: one thread running a client-side EventLoop
// over a few pipelined binary-protocol connections. Sessions arrive on the
// schedule; inside a session each op is sent a think pause after the
// previous reply. Every op is timed from when it was due.
#ifndef NAVBENCH_LOADGEN_H_
#define NAVBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"

namespace navbench {

/// One session to drive: its plan, wire query and oracle script.
struct SessionJob {
  SessionPlan plan;
  const std::string* query = nullptr;
  const Script* script = nullptr;
};

/// Client-side record of one op, all times on the steady clock.
struct OpRecord {
  uint32_t session = 0;
  uint16_t index = 0;  // Position in the session's script.
  OpKind kind = OpKind::kQuery;
  int32_t node = -1;
  bool cached = false;  // QUERY reply's "cached" flag.
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  double latency_ms() const { return (recv_ns - due_ns) / 1e6; }
  double lag_ms() const { return (sent_ns - due_ns) / 1e6; }
};

struct SessionTally {
  bool completed = false;
  int64_t nav_cost = 0;
  uint64_t fingerprint = 0;
};

struct LoadResult {
  std::vector<OpRecord> ops;  // Every op sent, in send order.
  std::vector<SessionTally> sessions;
  int64_t attempted = 0;
  int64_t error_replies = 0;   // ok:false other than shed.
  int64_t shed = 0;            // RETRY_LATER / SHUTTING_DOWN.
  int64_t transport_errors = 0;
  int64_t timeouts = 0;        // Sent or due, unanswered at the deadline.
  int64_t mismatches = 0;      // Reply differs from the oracle.
  std::string first_error;
  /// Binary request frame bodies sent, kept when recording is on.
  std::vector<std::string> frames;
  int64_t failed() const {
    return error_replies + shed + transport_errors + timeouts + mismatches;
  }
};

/// Pipelined connections the generator spreads sessions over: one per
/// core of the 4-core box the benchmark is sized for.
inline constexpr int kConnections = 4;

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Think pauses come from here (the arrival fields are not used).
  ScheduleSpec spec;
  /// Give up on unanswered ops this long after the last arrival.
  double drain_s = 20;
  bool record_frames = false;
};

/// Runs every job to completion (or the deadline) starting now.
LoadResult RunLoad(const LoadOptions& options,
                   const std::vector<SessionJob>& jobs);

}  // namespace navbench

#endif  // NAVBENCH_LOADGEN_H_
