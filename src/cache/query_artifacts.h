#ifndef BIONAV_CACHE_QUERY_ARTIFACTS_H_
#define BIONAV_CACHE_QUERY_ARTIFACTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "algo/cut_memo.h"
#include "core/cost_model.h"
#include "core/navigation_tree.h"
#include "core/result_set.h"
#include "medline/eutils.h"
#include "util/status.h"

namespace bionav {

/// Pre-serialized response payloads keyed by (request shape, encoding) —
/// the zero-copy unit of wire protocol v2. An immutable navigation tree
/// answers the same QUERY/EXPAND/SHOWRESULTS requests with byte-identical
/// payloads for every session sharing it, so the serialization is rendered
/// once per encoding, held refcounted, and served via writev without
/// copying. The store is attached to (immutable, shared) QueryArtifacts;
/// lazily filling it is the one sanctioned mutation, guarded here.
class ResponseTemplateStore {
 public:
  /// Encodings are opaque small ints here (the server passes its WireProto)
  /// so the cache layer does not depend on protocol headers.
  static constexpr int kNumEncodings = 2;

  struct Stats {
    int64_t renders[kNumEncodings] = {0, 0};  // Renders that were stored.
    int64_t hits = 0;                         // Served a stored payload.
    size_t bytes = 0;                         // Resident payload bytes.
  };

  /// Returns the payload for `key`+`encoding`, invoking `render` on a
  /// miss. The render runs outside the store lock, so a long render never
  /// holds up a lookup of another template; callers racing on one missing
  /// template may each render it, and the first insert wins — every caller
  /// gets that payload, so one (key, encoding) is stored, counted and
  /// served once.
  std::shared_ptr<const std::string> GetOrRender(
      const std::string& key, int encoding,
      const std::function<std::string()>& render) const;

  /// The stored payload for `key`+`encoding` (counted as a hit), or null.
  std::shared_ptr<const std::string> Find(const std::string& key,
                                          int encoding) const;

  /// Resident payload bytes (keys + rendered payloads + table overhead);
  /// folded into QueryArtifacts::MemoryFootprint so the cache byte budget
  /// counts templates.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const std::string>> map_;
  mutable int64_t renders_[kNumEncodings] = {0, 0};
  mutable int64_t hits_ = 0;
  mutable std::atomic<size_t> bytes_{0};
};

/// The immutable per-query outcome of the online pipeline of Section VII:
/// ESearch result, the maximum-embedding navigation tree and its cost
/// model. Everything mutable about one navigation dialogue (ActiveTree,
/// expand log, trace ring) lives in the NavigationSession; this bundle is
/// what QueryArtifactCache shares across sessions, so once published its
/// tree, result and cost model must never change — and a NavigationTree
/// is immutable from construction, subtree citation sets included. Two
/// internally locked caches ride along, filled lazily by whichever session
/// gets there first and read by all: the response templates and the cut
/// memo. Both are pure functions of the immutable parts.
struct QueryArtifacts {
  /// Normalized cache key the bundle was built for (NormalizeQueryKey).
  std::string key;
  std::shared_ptr<const ResultSet> result;
  std::shared_ptr<const NavigationTree> nav;
  std::shared_ptr<const CostModel> cost_model;
  /// Wall time the build took — re-recorded as "build time saved" every
  /// time a later session is served from the cache instead of rebuilding.
  int64_t build_us = 0;
  /// Pre-serialized wire responses for this bundle's tree, filled
  /// lazily by the server on first touch per (request shape, encoding).
  ResponseTemplateStore templates;
  /// Heuristic-ReducedOpt's cross-EXPAND memo, shared by every session of
  /// this bundle (NavigationSession points its strategy here), so a cut
  /// chosen once answers the same component in any later session, a
  /// session restored from spill included. Entries self-validate against
  /// each caller's own active tree; see CutMemo.
  mutable CutMemo cut_memo;

  /// Heap bytes held by the bundle (result set, tree incl. its subtree
  /// citation sets, cost model, rendered response templates, cut memo) —
  /// the unit of the cache's byte budget. Grows as templates render and
  /// cuts are memoized; the cache re-reads that growth on hits to keep its
  /// budget honest.
  size_t MemoryFootprint() const { return FixedBytes() + GrowingBytes(); }
  /// The parts of MemoryFootprint fixed at the build (a walk of the tree)
  /// and those that grow after it (templates and cut memo, read in O(1)).
  size_t FixedBytes() const;
  size_t GrowingBytes() const { return templates.bytes() + cut_memo.bytes(); }

  /// Serializes the bundle into a framed, checksummed record — the payload
  /// of the FETCH_ARTIFACT wire op. Same record discipline as the session
  /// snapshots (see kArtifactMagic below): magic, length, CRC-32, then a
  /// varint payload carrying the key, the cost-model parameters, the
  /// result-set citation ids and the pre-order tree nodes. Response
  /// templates are NOT serialized — they are per-encoding render caches
  /// the receiving shard refills lazily — and neither is the cut memo: a
  /// fetched bundle starts with an empty one.
  std::string Serialize() const;

  /// Parses a record produced by Serialize on another shard: rebuilds the
  /// ResultSet (first-occurrence order round-trips exactly), reconstructs
  /// the NavigationTree against the local hierarchy, and
  /// re-derives the CostModel from the carried parameters (its weights are
  /// a deterministic function of tree + params). Returns kDataLoss for
  /// anything untrustworthy — short header, bad magic, CRC mismatch,
  /// underrun/overrun, structurally invalid tree — and kInvalidArgument
  /// for an unknown format version; it never crashes on arbitrary bytes.
  static Result<std::shared_ptr<const QueryArtifacts>> Deserialize(
      const ConceptHierarchy& hierarchy, std::string_view record);
};

/// On-disk/wire record layout of a serialized artifact bundle: the sealed
/// record of BNS1 session snapshots (SealRecord in persist/
/// session_snapshot.h) under magic "BNA1", its payload canonical varints,
/// version first.
inline constexpr char kArtifactMagic[4] = {'B', 'N', 'A', '1'};
inline constexpr uint64_t kArtifactFormatVersion = 1;

/// Cache key of a query string: ASCII-lowercased with whitespace runs
/// collapsed to single spaces and outer whitespace stripped. Deliberately
/// conservative — term order and repetition are preserved, so two queries
/// share a key only when the backend trivially treats them identically
/// (ESearch keyword matching is case- and spacing-insensitive; reordering
/// is not assumed, mirroring PubMed query semantics).
std::string NormalizeQueryKey(std::string_view query);

/// Runs the full per-query pipeline (ESearch -> navigation tree -> cost
/// model) and bundles the artifacts. The bundle is immutable, so it is
/// safe to share across threads. The trailing bool is ignored; it is kept
/// so navbench/main.cc, which still passes one, compiles.
std::shared_ptr<const QueryArtifacts> BuildQueryArtifacts(
    const ConceptHierarchy& hierarchy, const EUtilsClient& eutils,
    const std::string& query, CostModelParams params, bool = true);

}  // namespace bionav

#endif  // BIONAV_CACHE_QUERY_ARTIFACTS_H_
