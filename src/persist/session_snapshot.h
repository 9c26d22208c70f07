#ifndef BIONAV_PERSIST_SESSION_SNAPSHOT_H_
#define BIONAV_PERSIST_SESSION_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/session.h"
#include "util/status.h"

namespace bionav {

/// Everything a NavigationSession needs to come back from disk. The heavy
/// per-query artifacts (result set, navigation tree, cost model) are
/// deliberately NOT here — they are shared, immutable, and rebuildable via
/// the QueryArtifactCache from the query string — so a snapshot is a few
/// hundred bytes even for a deep session: the token, the query, and the
/// replay log of applied edge cuts. EXPAND is deterministic, so the log
/// reconstructs the exact ActiveTree (structure, revealed/cut state and
/// backtrack stack). The cut memo is not here either: it lives on the
/// query artifacts, so a restored session answers its next EXPAND of a
/// component any session of the query has already cut from that memo.
struct SessionSnapshot {
  std::string token;
  std::string query;
  /// Expansion policy the session ran under. Restore refuses a mismatch:
  /// resurrecting a session under a different policy would silently change
  /// every subsequent EXPAND.
  std::string strategy_name;
  /// Result-set size at snapshot time; a mismatch on restore means the
  /// corpus changed under the spill directory and the replay log no longer
  /// describes this tree.
  uint64_t result_size = 0;
  /// Wall-clock stamp (informational; steady clocks do not survive exec).
  int64_t saved_unix_ms = 0;
  std::vector<ExpandRecord> expands;
};

/// On-disk record layout: the sealed-record frame that BNS1 snapshots and
/// BNA1 artifacts share (SealRecord/OpenRecord; integers little-endian):
///
///   [0..3]   magic "BNS1"
///   [4..7]   u32 payload length
///   [8..11]  u32 CRC-32 (IEEE) of the payload
///   [12.. ]  payload: canonical varint-encoded fields, version first
///
/// Decode rejects anything it cannot trust — short header, bad magic,
/// length disagreeing with the bytes present, checksum mismatch, payload
/// that underruns or overruns its fields, overlong varints, node ids past
/// int32 — with StatusCode::kDataLoss, and an unknown payload version with
/// kInvalidArgument. It never crashes on arbitrary bytes, and a record it
/// accepts re-encodes to the same bytes.
inline constexpr char kSnapshotMagic[4] = {'B', 'N', 'S', '1'};
inline constexpr uint64_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSealedRecordHeaderBytes = 12;

/// CRC-32 (IEEE 802.3, reflected) of `data`.
uint32_t Crc32(std::string_view data);

/// Frames `payload` under `magic` with its length and CRC-32.
std::string SealRecord(const char (&magic)[4], std::string_view payload);

/// The payload of a sealed record (a view into `record`), or kDataLoss
/// "<what> record ..." when the header is short, the magic differs, the
/// length disagrees with the bytes present, or the checksum fails.
Result<std::string_view> OpenRecord(const char (&magic)[4],
                                    std::string_view record,
                                    std::string_view what);

/// Serializes a snapshot into a framed, checksummed record.
std::string EncodeSnapshot(const SessionSnapshot& snapshot);

/// Parses a framed record. See the layout contract above for the errors.
Result<SessionSnapshot> DecodeSnapshot(std::string_view record);

/// Captures the durable state of a live session. The caller names the
/// token (sessions do not know their own) and stamps wall time.
SessionSnapshot SnapshotSession(const NavigationSession& session,
                                std::string token, int64_t saved_unix_ms);

/// Rebuilds a session from a snapshot: constructs it over the (shared or
/// freshly built) artifacts, verifies the strategy and result size still
/// match, then replays the recorded edge cuts verbatim. Returns kDataLoss
/// if the replay no longer applies (the underlying tree changed) and
/// kFailedPrecondition on a strategy/result-size mismatch.
Result<std::unique_ptr<NavigationSession>> RestoreSession(
    const SessionSnapshot& snapshot, const EUtilsClient* eutils,
    std::shared_ptr<const QueryArtifacts> artifacts,
    const StrategyFactory& strategy_factory);

}  // namespace bionav

#endif  // BIONAV_PERSIST_SESSION_SNAPSHOT_H_
