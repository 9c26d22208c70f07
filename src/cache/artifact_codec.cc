#include <cstring>

#include "cache/query_artifacts.h"
#include "persist/session_snapshot.h"
#include "server/protocol.h"

// QueryArtifacts::{Serialize,Deserialize} — the FETCH_ARTIFACT payload
// codec. Kept out of query_artifacts.cc so the cache layer's core stays
// free of wire/persist dependencies for readers; the record frame (magic,
// length, CRC) is the SealRecord/OpenRecord pair BNS1 snapshots use, and
// the varints follow the same canonical-only ReadVarint rule.

namespace bionav {

namespace {

/// Doubles travel as their IEEE-754 bit pattern, fixed 8 bytes LE — varints
/// would bloat (mantissa bits are high) and round-tripping through decimal
/// would break the "cost model re-derives identically" contract.
void AppendF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  out->append(bytes, 8);
}

bool ReadF64(std::string_view data, size_t* pos, double* out) {
  if (data.size() - *pos < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<unsigned char>(data[*pos + i]))
            << (8 * i);
  }
  *pos += 8;
  std::memcpy(out, &bits, sizeof(*out));
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::DataLoss("artifact record " + what);
}

}  // namespace

std::string QueryArtifacts::Serialize() const {
  BIONAV_CHECK(result != nullptr && nav != nullptr && cost_model != nullptr)
      << "serializing a partial artifact bundle";
  std::string payload;
  AppendVarint(&payload, kArtifactFormatVersion);
  AppendVarint(&payload, key.size());
  payload.append(key);
  AppendVarint(&payload, ZigzagEncode(build_us));

  const CostModelParams& params = cost_model->params();
  AppendF64(&payload, params.expand_cost);
  AppendF64(&payload, params.reveal_cost);
  AppendF64(&payload, params.show_cost);
  AppendVarint(&payload, static_cast<uint64_t>(params.expand_upper_threshold));
  AppendVarint(&payload, static_cast<uint64_t>(params.expand_lower_threshold));
  AppendVarint(&payload, static_cast<uint64_t>(params.explore_weight_mode));

  // Citation ids in the result set's own (first-occurrence) order: the
  // ResultSet constructor preserves it, so local bitset indexes carried by
  // the tree nodes stay valid on the other side.
  AppendVarint(&payload, result->size());
  for (CitationId cid : result->citations()) {
    AppendVarint(&payload, ZigzagEncode(cid));
  }

  std::vector<SerializedNavNode> nodes = nav->ToSerializedNodes();
  AppendVarint(&payload, nodes.size());
  for (const SerializedNavNode& node : nodes) {
    AppendVarint(&payload, static_cast<uint64_t>(node.concept_id));
    // parent+1 so the root's kInvalidNavNode (-1) stays a 1-byte varint.
    AppendVarint(&payload, static_cast<uint64_t>(node.parent + 1));
    AppendVarint(&payload, static_cast<uint64_t>(node.global_count));
    AppendVarint(&payload, node.result_indexes.size());
    // Ascending indexes delta-encode small: first absolute, then gaps.
    uint32_t prev = 0;
    for (size_t k = 0; k < node.result_indexes.size(); ++k) {
      uint32_t idx = node.result_indexes[k];
      AppendVarint(&payload, k == 0 ? idx : idx - prev);
      prev = idx;
    }
  }

  return SealRecord(kArtifactMagic, payload);
}

Result<std::shared_ptr<const QueryArtifacts>> QueryArtifacts::Deserialize(
    const ConceptHierarchy& hierarchy, std::string_view record) {
  Result<std::string_view> opened =
      OpenRecord(kArtifactMagic, record, "artifact");
  if (!opened.ok()) return opened.status();
  const std::string_view payload = opened.ValueOrDie();

  size_t pos = 0;
  uint64_t version = 0;
  if (!ReadVarint(payload, &pos, &version)) return Corrupt("payload underrun");
  if (version != kArtifactFormatVersion) {
    return Status::InvalidArgument("unsupported artifact format version " +
                                   std::to_string(version));
  }

  auto artifacts = std::make_shared<QueryArtifacts>();
  uint64_t key_len = 0;
  if (!ReadVarint(payload, &pos, &key_len)) return Corrupt("payload underrun");
  if (key_len > payload.size() - pos) return Corrupt("key overrun");
  artifacts->key.assign(payload.substr(pos, static_cast<size_t>(key_len)));
  pos += static_cast<size_t>(key_len);
  uint64_t build = 0;
  if (!ReadVarint(payload, &pos, &build)) return Corrupt("payload underrun");
  artifacts->build_us = ZigzagDecode(build);

  CostModelParams params;
  uint64_t upper = 0, lower = 0, mode = 0;
  if (!ReadF64(payload, &pos, &params.expand_cost) ||
      !ReadF64(payload, &pos, &params.reveal_cost) ||
      !ReadF64(payload, &pos, &params.show_cost) ||
      !ReadVarint(payload, &pos, &upper) ||
      !ReadVarint(payload, &pos, &lower) ||
      !ReadVarint(payload, &pos, &mode)) {
    return Corrupt("payload underrun in cost params");
  }
  if (upper > 1u << 30 || lower > upper || mode > 2) {
    return Corrupt("has implausible cost params");
  }
  params.expand_upper_threshold = static_cast<int>(upper);
  params.expand_lower_threshold = static_cast<int>(lower);
  params.explore_weight_mode = static_cast<ExploreWeightMode>(mode);

  uint64_t citation_count = 0;
  if (!ReadVarint(payload, &pos, &citation_count)) {
    return Corrupt("payload underrun");
  }
  // Each citation id takes at least one payload byte.
  if (citation_count > payload.size() - pos) {
    return Corrupt("citation count overrun");
  }
  std::vector<CitationId> citations;
  citations.reserve(static_cast<size_t>(citation_count));
  for (uint64_t i = 0; i < citation_count; ++i) {
    uint64_t raw = 0;
    if (!ReadVarint(payload, &pos, &raw)) {
      return Corrupt("payload underrun in citation list");
    }
    int64_t cid = ZigzagDecode(raw);
    if (cid < INT32_MIN || cid > INT32_MAX) {
      return Corrupt("citation id out of range");
    }
    citations.push_back(static_cast<CitationId>(cid));
  }
  auto result = std::make_shared<const ResultSet>(citations);
  if (result->size() != citations.size()) {
    // The constructor collapsed duplicates, so the carried local indexes
    // would be off by the collapsed amount — refuse rather than misattach.
    return Corrupt("repeats citation ids");
  }

  uint64_t node_count = 0;
  if (!ReadVarint(payload, &pos, &node_count)) {
    return Corrupt("payload underrun");
  }
  // A node takes at least 4 payload bytes (concept, parent, global, count).
  if (node_count > (payload.size() - pos) / 4 + 1) {
    return Corrupt("node count overrun");
  }
  std::vector<SerializedNavNode> nodes;
  nodes.reserve(static_cast<size_t>(node_count));
  for (uint64_t i = 0; i < node_count; ++i) {
    SerializedNavNode node;
    uint64_t concept_raw = 0, parent_plus1 = 0, global_raw = 0,
             index_count = 0;
    if (!ReadVarint(payload, &pos, &concept_raw) ||
        !ReadVarint(payload, &pos, &parent_plus1) ||
        !ReadVarint(payload, &pos, &global_raw) ||
        !ReadVarint(payload, &pos, &index_count)) {
      return Corrupt("payload underrun in node list");
    }
    if (concept_raw > INT32_MAX || parent_plus1 > node_count ||
        global_raw > INT64_MAX / 2) {
      return Corrupt("node field out of range");
    }
    if (index_count > payload.size() - pos) {
      return Corrupt("result index count overrun");
    }
    node.concept_id = static_cast<ConceptId>(concept_raw);
    node.parent = static_cast<NavNodeId>(parent_plus1) - 1;
    node.global_count = static_cast<int64_t>(global_raw);
    node.result_indexes.reserve(static_cast<size_t>(index_count));
    uint64_t idx = 0;
    for (uint64_t k = 0; k < index_count; ++k) {
      uint64_t delta = 0;
      if (!ReadVarint(payload, &pos, &delta)) {
        return Corrupt("payload underrun in result indexes");
      }
      idx = k == 0 ? delta : idx + delta;
      if (idx > result->size()) return Corrupt("result index out of range");
      node.result_indexes.push_back(static_cast<uint32_t>(idx));
    }
    nodes.push_back(std::move(node));
  }
  if (pos != payload.size()) {
    return Corrupt("trailing garbage after the node list");
  }

  auto tree = NavigationTree::FromSerializedNodes(hierarchy, result, nodes);
  if (!tree.ok()) return tree.status();
  std::shared_ptr<NavigationTree> nav = tree.TakeValue();
  artifacts->result = std::move(result);
  artifacts->cost_model =
      std::make_shared<const CostModel>(nav.get(), params);
  artifacts->nav = std::move(nav);
  return std::shared_ptr<const QueryArtifacts>(std::move(artifacts));
}

}  // namespace bionav
