#include "router/hot_keys.h"

#include <algorithm>
#include <cmath>

#include "util/timer.h"

namespace bionav {

namespace {

constexpr double kLn2 = 0.6931471805599453;

/// Entries whose decayed mass falls below this are indistinguishable from
/// a key seen once long ago — sweep fodder.
constexpr double kColdMass = 0.5;

}  // namespace

HotKeyTracker::HotKeyTracker() : HotKeyTracker(Options()) {}

HotKeyTracker::HotKeyTracker(Options options) : options_(std::move(options)) {
  if (!options_.clock) options_.clock = SteadyNowMs;
  if (options_.halflife_ms < 1) options_.halflife_ms = 1;
  if (options_.max_keys < 16) options_.max_keys = 16;
}

void HotKeyTracker::DecayTo(Entry* entry, int64_t now_ms,
                            double halflife_ms) {
  if (now_ms <= entry->updated_ms) return;
  double elapsed = static_cast<double>(now_ms - entry->updated_ms);
  entry->mass *= std::exp2(-elapsed / halflife_ms);
  entry->updated_ms = now_ms;
}

double HotKeyTracker::RateOf(double mass) const {
  // Steady rate r accumulates mass r * halflife / ln2; invert it.
  return mass * kLn2 / (static_cast<double>(options_.halflife_ms) / 1000.0);
}

double HotKeyTracker::Record(const std::string& key) {
  int64_t now = options_.clock();
  std::lock_guard<std::mutex> lock(mu_);
  if (keys_.size() >= options_.max_keys && keys_.find(key) == keys_.end()) {
    SweepLocked(now);
  }
  Entry& entry = keys_[key];
  DecayTo(&entry, now, static_cast<double>(options_.halflife_ms));
  entry.mass += 1.0;
  if (entry.updated_ms == 0) entry.updated_ms = now;
  return RateOf(entry.mass);
}

double HotKeyTracker::EstimatedQps(const std::string& key) const {
  int64_t now = options_.clock();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return 0;
  Entry decayed = it->second;
  DecayTo(&decayed, now, static_cast<double>(options_.halflife_ms));
  return RateOf(decayed.mass);
}

std::vector<HotKeyTracker::HotKey> HotKeyTracker::Hot(double min_qps) const {
  int64_t now = options_.clock();
  std::vector<HotKey> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : keys_) {
    Entry decayed = entry;
    DecayTo(&decayed, now, static_cast<double>(options_.halflife_ms));
    double qps = RateOf(decayed.mass);
    if (qps >= min_qps) out.push_back({key, qps});
  }
  std::sort(out.begin(), out.end(),
            [](const HotKey& a, const HotKey& b) { return a.qps > b.qps; });
  return out;
}

size_t HotKeyTracker::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

void HotKeyTracker::SweepLocked(int64_t now_ms) {
  for (auto it = keys_.begin(); it != keys_.end();) {
    DecayTo(&it->second, now_ms, static_cast<double>(options_.halflife_ms));
    it = it->second.mass < kColdMass ? keys_.erase(it) : std::next(it);
  }
  if (keys_.size() < options_.max_keys) return;
  // Every key is genuinely warm; shed the coldest half so admission of new
  // keys stays O(1) amortized instead of thrashing the sweep.
  std::vector<std::pair<double, std::string>> by_mass;
  by_mass.reserve(keys_.size());
  for (const auto& [key, entry] : keys_) by_mass.push_back({entry.mass, key});
  std::nth_element(
      by_mass.begin(), by_mass.begin() + by_mass.size() / 2, by_mass.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < by_mass.size() / 2; ++i) {
    keys_.erase(by_mass[i].second);
  }
}

}  // namespace bionav
