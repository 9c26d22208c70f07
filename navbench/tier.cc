#include "tier.h"

#include <sstream>

namespace navbench {

using namespace bionav;

namespace {
constexpr int kShards = 2;
constexpr int kReplicas = 2;
constexpr double kReplicateAboveQps = 2.0;
/// Far above any workload's concurrent sessions: LRU eviction would
/// destroy live sessions (spill off) and fail their next op.
constexpr size_t kMaxSessions = 8192;

int ThreadsPerServer(const TierConfig& config) { return config.routed ? 1 : 2; }

}  // namespace

Result<std::unique_ptr<Tier>> Tier::Start(const Workload& workload,
                                          const EUtilsClient* eutils,
                                          const TierConfig& config) {
  std::unique_ptr<Tier> tier(new Tier());
  tier->config_ = config;
  NavServerOptions options;
  options.threads = ThreadsPerServer(config);
  options.io_threads = 1;
  options.session.max_sessions = kMaxSessions;
  options.session.cache_max_bytes = config.cache_bytes;
  options.session.spill_after_ms = config.spill_after_ms;
  const int count = config.routed ? kShards : 1;
  NavRouterOptions router_options;
  router_options.replicas = kReplicas;
  router_options.replicate_above_qps = kReplicateAboveQps;
  std::vector<RouterBackend> fleet;
  for (int b = 0; b < count; ++b) {
    NavServerOptions shard = options;
    std::string id = "shard" + std::to_string(b);
    if (!config.spill_dir.empty()) {
      shard.session.spill_dir =
          config.spill_dir + (config.routed ? "/" + id : std::string());
    }
    if (config.routed) {
      shard.session.token_prefix = id + "-";
      auto fetcher =
          std::make_unique<PeerArtifactFetcher>(&workload.hierarchy());
      PeerArtifactFetcher* raw = fetcher.get();
      shard.session.peer_fetcher = [raw](const std::string& key) {
        return raw->Fetch(key);
      };
      tier->fetchers_.push_back(std::move(fetcher));
    }
    auto server = std::make_unique<NavServer>(&workload.hierarchy(), eutils,
                                              config.factory, shard);
    Status up = server->Start();
    if (!up.ok()) return up;
    fleet.push_back({"127.0.0.1", server->port(), id});
    tier->servers_.push_back(std::move(server));
  }
  if (config.routed) {
    std::vector<PeerSpec> peers;
    for (const RouterBackend& b : fleet) {
      peers.push_back({b.id, b.host, b.port});
    }
    for (int b = 0; b < count; ++b) {
      PeerFetchOptions peer;
      peer.self_id = fleet[static_cast<size_t>(b)].id;
      peer.peers = peers;
      peer.vnodes = router_options.ring_vnodes;
      peer.seed = router_options.ring_seed;
      tier->fetchers_[static_cast<size_t>(b)]->Configure(std::move(peer));
    }
    tier->router_ =
        std::make_unique<NavRouter>(std::move(fleet), router_options);
    Status up = tier->router_->Start();
    if (!up.ok()) return up;
  }
  return tier;
}

Tier::~Tier() { Shutdown(); }

void Tier::Shutdown() {
  if (router_ != nullptr) router_->Shutdown();
  for (auto& server : servers_) server->Shutdown();
}

int Tier::port() const {
  return router_ != nullptr ? router_->port() : servers_.front()->port();
}

int Tier::threads() const {
  int n = static_cast<int>(servers_.size()) * (ThreadsPerServer(config_) + 1);
  return n + (router_ != nullptr ? 1 : 0);
}

std::string Tier::Describe() const {
  std::ostringstream out;
  if (router_ != nullptr) {
    out << "NavRouter (1 io thread, replicas " << kReplicas
        << ", peer fetch on) over " << servers_.size() << " NavServer shards";
  } else {
    out << "NavServer";
  }
  out << " (1 io + " << ThreadsPerServer(config_) << " workers each), cache "
      << (config_.cache_bytes >> 20) << " MB"
      << (config_.spill_dir.empty()
              ? std::string()
              : ", spill after " + std::to_string(config_.spill_after_ms) +
                    " ms");
  return out.str();
}

Status Tier::Warm(const std::vector<std::string>& queries) const {
  NavClientOptions options;
  options.proto = WireProto::kBinary;
  auto client = NavClient::Connect("127.0.0.1", port(), options);
  if (!client.ok()) return client.status();
  for (const std::string& query : queries) {
    auto opened = client.ValueOrDie()->Query(query);
    if (!opened.ok()) return opened.status();
    Status closed =
        client.ValueOrDie()->CloseSession(opened.ValueOrDie().token);
    if (!closed.ok()) return closed;
  }
  return Status::OK();
}

}  // namespace navbench
