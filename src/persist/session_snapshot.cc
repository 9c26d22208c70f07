#include "persist/session_snapshot.h"

#include "server/protocol.h"

namespace bionav {

namespace {

void AppendString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s);
}

bool ReadString(std::string_view data, size_t* pos, std::string* out) {
  uint64_t len = 0;
  if (!ReadVarint(data, pos, &len)) return false;
  if (len > data.size() - *pos) return false;
  out->assign(data.substr(*pos, static_cast<size_t>(len)));
  *pos += static_cast<size_t>(len);
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::DataLoss("snapshot record " + what);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xff];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string SealRecord(const char (&magic)[4], std::string_view payload) {
  std::string record(magic, sizeof(magic));
  record.reserve(kSealedRecordHeaderBytes + payload.size());
  AppendU32LE(&record, static_cast<uint32_t>(payload.size()));
  AppendU32LE(&record, Crc32(payload));
  record.append(payload);
  return record;
}

Result<std::string_view> OpenRecord(const char (&magic)[4],
                                    std::string_view record,
                                    std::string_view what) {
  auto corrupt = [&](const std::string& detail) {
    return Status::DataLoss(std::string(what) + " record " + detail);
  };
  if (record.size() < kSealedRecordHeaderBytes) {
    return corrupt("truncated before the header (" +
                   std::to_string(record.size()) + " bytes)");
  }
  if (record.substr(0, sizeof(magic)) !=
      std::string_view(magic, sizeof(magic))) {
    return corrupt("has no " + std::string(magic, sizeof(magic)) + " magic");
  }
  const uint32_t payload_len = ReadU32LE(record.data() + 4);
  const uint32_t crc = ReadU32LE(record.data() + 8);
  std::string_view payload = record.substr(kSealedRecordHeaderBytes);
  if (payload.size() != payload_len) {
    return corrupt("length mismatch: header says " +
                   std::to_string(payload_len) + " payload bytes, " +
                   std::to_string(payload.size()) + " present");
  }
  if (Crc32(payload) != crc) return corrupt("checksum mismatch");
  return payload;
}

std::string EncodeSnapshot(const SessionSnapshot& snapshot) {
  std::string payload;
  AppendVarint(&payload, kSnapshotFormatVersion);
  AppendString(&payload, snapshot.token);
  AppendString(&payload, snapshot.query);
  AppendString(&payload, snapshot.strategy_name);
  AppendVarint(&payload, snapshot.result_size);
  AppendVarint(&payload, ZigzagEncode(snapshot.saved_unix_ms));
  AppendVarint(&payload, snapshot.expands.size());
  for (const ExpandRecord& rec : snapshot.expands) {
    AppendVarint(&payload, static_cast<uint64_t>(rec.root));
    AppendVarint(&payload, rec.cut.cut_children.size());
    // Cut children stay in strategy order: ApplyEdgeCut reveals the lower
    // components in cut order, and restore must reproduce it byte-for-byte.
    for (NavNodeId child : rec.cut.cut_children) {
      AppendVarint(&payload, static_cast<uint64_t>(child));
    }
  }
  return SealRecord(kSnapshotMagic, payload);
}

Result<SessionSnapshot> DecodeSnapshot(std::string_view record) {
  Result<std::string_view> opened =
      OpenRecord(kSnapshotMagic, record, "snapshot");
  if (!opened.ok()) return opened.status();
  const std::string_view payload = opened.ValueOrDie();

  size_t pos = 0;
  uint64_t version = 0;
  if (!ReadVarint(payload, &pos, &version)) return Corrupt("payload underrun");
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(version));
  }
  SessionSnapshot snap;
  uint64_t saved = 0, count = 0;
  if (!ReadString(payload, &pos, &snap.token) ||
      !ReadString(payload, &pos, &snap.query) ||
      !ReadString(payload, &pos, &snap.strategy_name) ||
      !ReadVarint(payload, &pos, &snap.result_size) ||
      !ReadVarint(payload, &pos, &saved) ||
      !ReadVarint(payload, &pos, &count)) {
    return Corrupt("payload underrun");
  }
  snap.saved_unix_ms = ZigzagDecode(saved);
  // An expand touches at least 2 payload bytes (root + cut size), so a
  // count past the remaining bytes is garbage — reject before reserving.
  if (count > (payload.size() - pos)) return Corrupt("expand count overrun");
  snap.expands.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    ExpandRecord rec;
    uint64_t root = 0, cut_size = 0;
    if (!ReadVarint(payload, &pos, &root) ||
        !ReadVarint(payload, &pos, &cut_size)) {
      return Corrupt("payload underrun in expand log");
    }
    if (cut_size > (payload.size() - pos)) {
      return Corrupt("cut size overrun");
    }
    if (root > INT32_MAX) return Corrupt("node id out of range");
    rec.root = static_cast<NavNodeId>(root);
    rec.cut.cut_children.reserve(static_cast<size_t>(cut_size));
    for (uint64_t j = 0; j < cut_size; ++j) {
      uint64_t child = 0;
      if (!ReadVarint(payload, &pos, &child)) {
        return Corrupt("payload underrun in edge cut");
      }
      if (child > INT32_MAX) return Corrupt("node id out of range");
      rec.cut.cut_children.push_back(static_cast<NavNodeId>(child));
    }
    snap.expands.push_back(std::move(rec));
  }
  if (pos != payload.size()) {
    return Corrupt("trailing garbage after the expand log");
  }
  return snap;
}

SessionSnapshot SnapshotSession(const NavigationSession& session,
                                std::string token, int64_t saved_unix_ms) {
  SessionSnapshot snap;
  snap.token = std::move(token);
  snap.query = session.query();
  snap.strategy_name = session.strategy_name();
  snap.result_size = session.result_size();
  snap.saved_unix_ms = saved_unix_ms;
  snap.expands = session.expand_log();
  return snap;
}

Result<std::unique_ptr<NavigationSession>> RestoreSession(
    const SessionSnapshot& snapshot, const EUtilsClient* eutils,
    std::shared_ptr<const QueryArtifacts> artifacts,
    const StrategyFactory& strategy_factory) {
  auto session = std::make_unique<NavigationSession>(
      eutils, std::move(artifacts), snapshot.query, strategy_factory);
  if (session->strategy_name() != snapshot.strategy_name) {
    return Status::FailedPrecondition(
        "snapshot was taken under strategy '" + snapshot.strategy_name +
        "', server runs '" + session->strategy_name() + "'");
  }
  if (session->result_size() != snapshot.result_size) {
    return Status::FailedPrecondition(
        "result set changed since snapshot: " +
        std::to_string(snapshot.result_size) + " citations then, " +
        std::to_string(session->result_size()) + " now");
  }
  for (size_t i = 0; i < snapshot.expands.size(); ++i) {
    const ExpandRecord& rec = snapshot.expands[i];
    Status applied = session->ReplayExpand(rec.root, rec.cut);
    if (!applied.ok()) {
      return Status::DataLoss("snapshot replay failed at expand " +
                              std::to_string(i) + "/" +
                              std::to_string(snapshot.expands.size()) + ": " +
                              applied.ToString());
    }
  }
  return session;
}

}  // namespace bionav
