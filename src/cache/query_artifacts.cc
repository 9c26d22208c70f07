#include "cache/query_artifacts.h"

#include <cctype>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace bionav {

namespace {

/// Charged per template entry on top of the key and payload bytes (table
/// node, two control blocks, shared_ptr) — an estimate, like the other
/// MemoryFootprint accounting, but keeps many-small-template bundles from
/// looking free.
constexpr size_t kTemplateEntryOverhead = 96;

}  // namespace

namespace {

std::string TemplateKey(const std::string& key, int encoding) {
  BIONAV_CHECK(encoding >= 0 &&
               encoding < ResponseTemplateStore::kNumEncodings)
      << "bad template encoding " << encoding;
  return std::to_string(encoding) + "|" + key;
}

}  // namespace

std::shared_ptr<const std::string> ResponseTemplateStore::Find(
    const std::string& key, int encoding) const {
  const std::string full_key = TemplateKey(key, encoding);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(full_key);
  if (it == map_.end()) return nullptr;
  ++hits_;
  return it->second;
}

std::shared_ptr<const std::string> ResponseTemplateStore::GetOrRender(
    const std::string& key, int encoding,
    const std::function<std::string()>& render) const {
  if (auto stored = Find(key, encoding)) return stored;
  auto payload = std::make_shared<const std::string>(render());
  std::string full_key = TemplateKey(key, encoding);
  const size_t entry_bytes =
      full_key.size() + payload->size() + kTemplateEntryOverhead;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.emplace(std::move(full_key), payload);
  if (!inserted) {
    // Another caller rendered the same template meanwhile; serve theirs.
    ++hits_;
    return it->second;
  }
  ++renders_[encoding];
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
  return payload;
}

ResponseTemplateStore::Stats ResponseTemplateStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  for (int i = 0; i < kNumEncodings; ++i) stats.renders[i] = renders_[i];
  stats.hits = hits_;
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

size_t QueryArtifacts::FixedBytes() const {
  size_t bytes = sizeof(QueryArtifacts) + key.capacity();
  if (result != nullptr) bytes += result->MemoryFootprint();
  if (nav != nullptr) bytes += nav->MemoryFootprint();
  if (cost_model != nullptr) bytes += cost_model->MemoryFootprint();
  return bytes;
}

std::string NormalizeQueryKey(std::string_view query) {
  std::string key;
  key.reserve(query.size());
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!key.empty() && key.back() != ' ') key.push_back(' ');
    } else {
      key.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!key.empty() && key.back() == ' ') key.pop_back();
  return key;
}

std::shared_ptr<const QueryArtifacts> BuildQueryArtifacts(
    const ConceptHierarchy& hierarchy, const EUtilsClient& eutils,
    const std::string& query, CostModelParams params, bool) {
  // Fleet-wide count of from-scratch builds: the cross-shard singleflight
  // A/B gate asserts this equals the distinct-key count when peer fetch is
  // on (a FETCH_ARTIFACT arrival deliberately does not pass through here).
  static Counter* builds = GlobalMetrics().GetCounter(
      "bionav_artifact_builds_total",
      "Query artifact bundles built from scratch (not cache or peer hits)");
  builds->Increment();
  Timer timer;
  auto artifacts = std::make_shared<QueryArtifacts>();
  artifacts->key = NormalizeQueryKey(query);
  artifacts->result =
      std::make_shared<const ResultSet>(eutils.ESearch(query));
  auto nav = std::make_shared<NavigationTree>(hierarchy, eutils.associations(),
                                              artifacts->result);
  artifacts->cost_model = std::make_shared<const CostModel>(nav.get(), params);
  artifacts->nav = std::move(nav);
  artifacts->build_us = static_cast<int64_t>(timer.ElapsedMicros());
  return artifacts;
}

}  // namespace bionav
