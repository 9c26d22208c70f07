#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace navbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  const size_t n = samples.size();
  s.p99_blocks = n / kP99Block;
  std::vector<double> block_p99;
  for (size_t b = 0; b < s.p99_blocks; ++b) {
    std::vector<double> block(samples.begin() + b * n / s.p99_blocks,
                              samples.begin() + (b + 1) * n / s.p99_blocks);
    std::sort(block.begin(), block.end());
    block_p99.push_back(NearestRank(block, 99));
  }
  if (!block_p99.empty()) {
    s.p99 = Median(block_p99);
    s.has_p99 = true;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, start);
    iv.second = std::min(iv.second, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (const auto& [lo, hi] : intervals) {
    int64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return covered;
}

int64_t SelfTimeNs(const std::vector<Span>& spans, int64_t index,
                   const std::vector<int64_t>& children) {
  const Span& span = spans[static_cast<size_t>(index)];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (int64_t c : children) {
    const Span& child = spans[static_cast<size_t>(c)];
    intervals.emplace_back(child.start_ns, child.end_ns);
  }
  return span.duration_ns() -
         CoveredNs(span.start_ns, span.end_ns, std::move(intervals));
}

}  // namespace navbench
