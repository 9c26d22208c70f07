#ifndef BIONAV_UTIL_TIMER_H_
#define BIONAV_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace bionav {

/// Steady-clock readings as plain integers: deadlines, idle stamps and
/// latency start points that are stored in state or cross threads.
inline int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch used by the benchmark harness to report
/// per-EXPAND execution times (the paper's Figs 10 and 11).
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Restart, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time since construction / last Restart, in nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  /// Elapsed time in milliseconds (double, for pretty printing). Derived
  /// from the nanosecond reading so sub-microsecond spans (e.g. memoized
  /// incremental-engine EXPANDs) do not truncate to zero.
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Simple accumulator for averaged timings (per-query averages in Fig 10).
class TimingStats {
 public:
  void Add(double value) {
    sum_ += value;
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    ++count_;
  }

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_UTIL_TIMER_H_
