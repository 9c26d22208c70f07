#ifndef BIONAV_OBS_TRACE_H_
#define BIONAV_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace bionav {

/// Fixed-capacity ring of the most recent trace spans of one session —
/// the "what did the last EXPAND spend its time on" debugging surface
/// (bionav_cli navigate --trace renders it). Not thread-safe: a ring is
/// owned by one NavigationSession and only touched under that session's
/// operation serialization.
class SpanRing {
 public:
  struct Span {
    /// Stage name; must point at a string literal (spans never own it).
    const char* name = nullptr;
    /// Start, microseconds on the steady clock (for ordering/nesting).
    int64_t start_us = 0;
    int64_t duration_us = 0;
  };

  explicit SpanRing(size_t capacity);

  size_t capacity() const { return spans_.size(); }
  size_t size() const { return size_; }

  void Record(const char* name, int64_t start_us, int64_t duration_us);
  void Clear();

  /// Retained spans, oldest first.
  std::vector<Span> Snapshot() const;

 private:
  std::vector<Span> spans_;
  size_t next_ = 0;
  size_t size_ = 0;
};

/// The ring TraceSpans on this thread record into (nullptr = none). Scoped
/// by ScopedSpanRing: the session layer installs its ring for the duration
/// of one operation, and every span opened underneath — strategy, DP,
/// active-tree — lands in it without any plumbing through the call chain.
SpanRing* CurrentSpanRing();

class ScopedSpanRing {
 public:
  explicit ScopedSpanRing(SpanRing* ring);
  ~ScopedSpanRing();
  ScopedSpanRing(const ScopedSpanRing&) = delete;
  ScopedSpanRing& operator=(const ScopedSpanRing&) = delete;

 private:
  SpanRing* previous_;
};

/// RAII stage timer: measures its own lifetime and, on destruction,
/// records the duration into `histogram` (when non-null) and into the
/// thread's current SpanRing (when one is installed). When observability
/// is globally disabled the constructor skips the clock read and the
/// destructor does nothing — the cost is one relaxed atomic load.
class TraceSpan {
 public:
  TraceSpan(const char* name, LatencyHistogram* histogram);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records nothing after all (the work it timed was handed elsewhere).
  void Cancel() {
    histogram_ = nullptr;
    ring_ = nullptr;
  }

 private:
  const char* name_;
  LatencyHistogram* histogram_;
  SpanRing* ring_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bionav

#endif  // BIONAV_OBS_TRACE_H_
