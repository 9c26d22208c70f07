// The system under test, in process: one NavServer, or a NavRouter over
// NavServer shards with peer fetch on.
#ifndef NAVBENCH_TIER_H_
#define NAVBENCH_TIER_H_

#include <memory>
#include <string>
#include <vector>

#include "bionav.h"

namespace navbench {

/// One NavServer with 1 io thread and 2 workers: with the generator, the
/// 4 threads of a 4-core box. Or (routed) a NavRouter with 1 io thread over
/// 2 NavServer shards of 1 io thread and 1 worker each, replicating keys
/// hotter than 2 QPS to both shards with peer fetch on.
struct TierConfig {
  bool routed = false;
  size_t cache_bytes = bionav::QueryArtifactCacheOptions().max_bytes;
  /// Spill tier (empty dir = off).
  std::string spill_dir;
  int64_t spill_after_ms = 0;
  bionav::StrategyFactory factory;
};

class Tier {
 public:
  static bionav::Result<std::unique_ptr<Tier>> Start(
      const bionav::Workload& workload, const bionav::EUtilsClient* eutils,
      const TierConfig& config);
  ~Tier();

  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  /// The endpoint clients talk to (router or the single server).
  int port() const;
  const std::vector<std::unique_ptr<bionav::NavServer>>& servers() const {
    return servers_;
  }
  bionav::NavRouter* router() const { return router_.get(); }
  /// Threads the tier runs (reactors, workers, router reactor).
  int threads() const;
  std::string Describe() const;

  /// QUERY + CLOSE of each query, one blocking client: fills the caches.
  bionav::Status Warm(const std::vector<std::string>& queries) const;

 private:
  Tier() = default;
  void Shutdown();

  TierConfig config_;
  // Fetchers are captured by the shards' session options: declared first,
  // destroyed last.
  std::vector<std::unique_ptr<bionav::PeerArtifactFetcher>> fetchers_;
  std::vector<std::unique_ptr<bionav::NavServer>> servers_;
  std::unique_ptr<bionav::NavRouter> router_;
};

}  // namespace navbench

#endif  // NAVBENCH_TIER_H_
