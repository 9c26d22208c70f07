// Sample statistics and span arithmetic of the serving benchmark.
#ifndef NAVBENCH_STATS_H_
#define NAVBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace navbench {

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample:
/// the smallest value with at least p% of the samples at or below it.
/// 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double p);

/// Samples per p99 block: the fewest with ten samples beyond the p99.
inline constexpr size_t kP99Block = 1000;

/// An exact client-side latency distribution, summarized honestly: the
/// median always (when there are samples), and the p99 only where the
/// sample supports one. The p99 is taken per block of consecutive samples
/// (each block at least kP99Block, so at least ten samples lie beyond its
/// p99) and the median over blocks is reported: a host stall that hits
/// one stretch of a run moves one block, not the figure.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  bool has_p99 = false;
  size_t p99_blocks = 0;
};
/// `samples` in the order they were taken.
Summary Summarize(std::vector<double> samples);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// One traced interval: a call into a layer, timed from the benchmark's
/// side. Spans of one request share `request`; `parent` indexes the span
/// that caused this one in the same log (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store of one thread, written out once the run ends.
class SpanLog {
 public:
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t index);
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& mutable_spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Length of the part of [start, end) covered by the union of `intervals`
/// (each clipped to [start, end); overlaps counted once).
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals);

/// Self time of `spans[index]`: its duration minus the time its direct
/// children cover. `children` lists the indexes of every span whose parent
/// is `index`.
int64_t SelfTimeNs(const std::vector<Span>& spans, int64_t index,
                   const std::vector<int64_t>& children);

}  // namespace navbench

#endif  // NAVBENCH_STATS_H_
