#ifndef BIONAV_UTIL_KEYED_SINGLEFLIGHT_H_
#define BIONAV_UTIL_KEYED_SINGLEFLIGHT_H_

#include <functional>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bionav {

/// Per-key single-flight bookkeeping: the first caller to Join a key owns
/// its flight, and later callers get a future that becomes ready when the
/// owner lands it. The table has no lock of its own: Join, InFlight and
/// Land run under the caller's mutex, the one that also guards what the
/// owner publishes, so a newcomer sees either the flight or its outcome.
/// Waiting on the future and fulfilling the landed promise happen after
/// that mutex is released.
template <typename T>
class KeyedSingleflight {
 public:
  using Future = std::shared_future<T>;

  /// Nullopt when the caller now owns `key`'s flight; otherwise the
  /// running flight's future.
  std::optional<Future> Join(std::string_view key) {
    auto it = flights_.find(key);
    if (it != flights_.end()) return it->second.future;
    Flight& flight = flights_[std::string(key)];
    flight.future = flight.promise.get_future().share();
    return std::nullopt;
  }

  bool InFlight(std::string_view key) const {
    return flights_.find(key) != flights_.end();
  }

  /// Ends the owner's flight of `key` and hands back its promise; setting
  /// it wakes the waiters.
  std::promise<T> Land(std::string_view key) {
    auto it = flights_.find(key);
    std::promise<T> promise = std::move(it->second.promise);
    flights_.erase(it);
    return promise;
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>()(key);
    }
  };
  struct Flight {
    std::promise<T> promise;
    Future future;
  };
  std::unordered_map<std::string, Flight, Hash, std::equal_to<>> flights_;
};

}  // namespace bionav

#endif  // BIONAV_UTIL_KEYED_SINGLEFLIGHT_H_
