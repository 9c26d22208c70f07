#include "router/peer_fetch.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "server/nav_client.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bionav {

namespace {

Counter* PeerFetchHits() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_peer_fetch_hits_total",
      "Artifact bundles obtained from the ring owner instead of building");
  return c;
}
Counter* PeerFetchMisses() {
  static Counter* c = GlobalMetrics().GetCounter(
      "bionav_peer_fetch_misses_total",
      "Peer artifact fetches that fell back to a local build");
  return c;
}
LatencyHistogram* PeerFetchLatency() {
  static LatencyHistogram* h = GlobalMetrics().GetHistogram(
      "bionav_peer_fetch_us", "FETCH_ARTIFACT round trip incl. deserialize");
  return h;
}

}  // namespace

PeerArtifactFetcher::PeerArtifactFetcher(const ConceptHierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  BIONAV_CHECK(hierarchy_ != nullptr);
}

void PeerArtifactFetcher::Configure(PeerFetchOptions options) {
  HashRingOptions ring_options;
  ring_options.vnodes = options.vnodes;
  ring_options.seed = options.seed;
  auto ring = std::make_unique<HashRing>(ring_options);
  std::vector<std::string> ids;
  for (const PeerSpec& peer : options.peers) ids.push_back(peer.id);
  ring->AddBackends(ids);

  std::lock_guard<std::mutex> lock(mu_);
  options_ = std::move(options);
  ring_ = std::move(ring);
  configured_ = true;
  pending_file_.clear();
}

void PeerArtifactFetcher::ConfigureFromFile(std::string path,
                                            std::string self_id) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_file_ = std::move(path);
  pending_self_id_ = std::move(self_id);
  configured_ = false;
}

bool PeerArtifactFetcher::configured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return configured_;
}

Result<PeerFetchOptions> PeerArtifactFetcher::ParsePeersFile(
    std::string_view contents, const std::string& self_id) {
  PeerFetchOptions options;
  options.self_id = self_id;
  std::istringstream in{std::string(contents)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // Blank / comment-only line.
    auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("peers file line " +
                                     std::to_string(line_no) + ": " + what);
    };
    if (keyword == "vnodes") {
      if (!(fields >> options.vnodes) || options.vnodes < 1) {
        return bad("vnodes wants a positive integer");
      }
    } else if (keyword == "seed") {
      if (!(fields >> options.seed)) return bad("seed wants an integer");
    } else if (keyword == "peer") {
      PeerSpec peer;
      std::string endpoint;
      if (!(fields >> peer.id >> endpoint)) {
        return bad("peer wants '<id> <host>:<port>'");
      }
      size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= endpoint.size()) {
        return bad("endpoint '" + endpoint + "' is not host:port");
      }
      peer.host = endpoint.substr(0, colon);
      peer.port = 0;
      for (size_t i = colon + 1; i < endpoint.size(); ++i) {
        if (endpoint[i] < '0' || endpoint[i] > '9') {
          return bad("port in '" + endpoint + "' is not numeric");
        }
        peer.port = peer.port * 10 + (endpoint[i] - '0');
      }
      if (peer.port < 1 || peer.port > 65535) {
        return bad("port in '" + endpoint + "' out of range");
      }
      options.peers.push_back(std::move(peer));
    } else {
      return bad("unknown keyword '" + keyword + "'");
    }
  }
  if (options.peers.empty()) return Status::InvalidArgument("peers file lists no peers");
  Status ring = CheckRingSize(options.vnodes, options.peers.size());
  if (!ring.ok()) {
    return Status::InvalidArgument("peers file: " + ring.message());
  }
  bool self_listed = false;
  for (const PeerSpec& peer : options.peers) {
    if (peer.id == self_id) self_listed = true;
  }
  if (!self_listed) {
    return Status::InvalidArgument("peers file does not list self id '" +
                                   self_id + "'");
  }
  return options;
}

bool PeerArtifactFetcher::EnsureConfigured() {
  std::string path;
  std::string self_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (configured_) return true;
    if (pending_file_.empty()) return false;
    path = pending_file_;
    self_id = pending_self_id_;
  }
  // The router writes the peers file after it has spawned every shard, so
  // a missing file is the normal bootstrap window, not an error: stay
  // unconfigured and re-probe on the next fetch.
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  Result<PeerFetchOptions> parsed = ParsePeersFile(contents.str(), self_id);
  if (!parsed.ok()) {
    BIONAV_LOG(Warning) << "peers file '" << path
                        << "' unusable: " << parsed.status().ToString();
    return false;
  }
  Configure(parsed.TakeValue());
  return true;
}

std::shared_ptr<const QueryArtifacts> PeerArtifactFetcher::Fetch(
    const std::string& key) {
  if (!EnsureConfigured()) return nullptr;
  PeerSpec owner;
  WireProto proto;
  int64_t connect_timeout_ms, recv_timeout_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string owner_id = ring_->OwnerOf(key);
    if (owner_id.empty() || owner_id == options_.self_id) {
      self_owned_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    for (const PeerSpec& peer : options_.peers) {
      if (peer.id == owner_id) owner = peer;
    }
    proto = options_.proto;
    connect_timeout_ms = options_.connect_timeout_ms;
    recv_timeout_ms = options_.recv_timeout_ms;
  }
  if (owner.port == 0) {
    // Ring and peer list disagree — treat like an unreachable owner.
    misses_.fetch_add(1, std::memory_order_relaxed);
    PeerFetchMisses()->Increment();
    return nullptr;
  }
  const int64_t t0 = SteadyNowUs();
  auto miss = [&]() -> std::shared_ptr<const QueryArtifacts> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    PeerFetchMisses()->Increment();
    return nullptr;
  };
  NavClientOptions client_options;
  client_options.connect_timeout_ms = connect_timeout_ms;
  client_options.recv_timeout_ms = recv_timeout_ms;
  client_options.proto = proto;
  // One short-lived connection per fetch: fetches are rare (first touch of
  // a non-owned key per shard, gated by the local singleflight), so a
  // pooled connection would idle for hours between uses.
  Result<std::unique_ptr<NavClient>> client =
      NavClient::Connect(owner.host, owner.port, client_options);
  if (!client.ok()) return miss();
  Result<std::string> record = client.ValueOrDie()->FetchArtifact(key);
  if (!record.ok()) return miss();
  Result<std::shared_ptr<const QueryArtifacts>> artifacts =
      QueryArtifacts::Deserialize(*hierarchy_, record.ValueOrDie());
  if (!artifacts.ok()) {
    BIONAV_LOG(Warning) << "peer artifact for '" << key << "' from "
                        << owner.id
                        << " undecodable: " << artifacts.status().ToString();
    return miss();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  PeerFetchHits()->Increment();
  PeerFetchLatency()->Record(SteadyNowUs() - t0);
  return artifacts.TakeValue();
}

PeerArtifactFetcher::Stats PeerArtifactFetcher::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.self_owned = self_owned_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace bionav
