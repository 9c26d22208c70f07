// Unit tests of the benchmark's own arithmetic: percentile selection,
// per-seed schedule determinism, and span self time.
#include <gtest/gtest.h>

#include <vector>

#include "schedule.h"
#include "stats.h"

namespace navbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankPicksTheSmallestValueCoveringP) {
  std::vector<double> v = Iota(100);
  EXPECT_EQ(NearestRank(v, 50), 50);
  EXPECT_EQ(NearestRank(v, 99), 99);
  EXPECT_EQ(NearestRank(v, 100), 100);
  EXPECT_EQ(NearestRank(v, 0), 1);
  EXPECT_EQ(NearestRank({7}, 99), 7);
  EXPECT_EQ(NearestRank({}, 50), 0);
  // Odd count: the median is the middle sample, not an interpolation.
  EXPECT_EQ(NearestRank(Iota(5), 50), 3);
}

TEST(Percentile, P99OnlyWithTenSamplesBeyondIt) {
  // 999 samples leave 9 beyond the nearest-rank p99; 1000 leave 10.
  Summary small = Summarize(Iota(999));
  EXPECT_EQ(small.count, 999u);
  EXPECT_EQ(small.p50, 500);
  EXPECT_FALSE(small.has_p99);
  Summary enough = Summarize(Iota(1000));
  EXPECT_TRUE(enough.has_p99);
  EXPECT_EQ(enough.p99, 990);
  EXPECT_FALSE(Summarize({}).has_p99);

  // Two blocks of 1000: p99s 990 and 1990, reported as their median.
  Summary s = Summarize(Iota(2000));
  EXPECT_TRUE(s.has_p99);
  EXPECT_EQ(s.p99_blocks, 2u);
  EXPECT_EQ(s.p99, 1490);
  EXPECT_EQ(s.p50, 1000);
}

TEST(Percentile, OneStalledStretchMovesOneBlockNotTheP99) {
  std::vector<double> v(3000, 1.0);
  for (size_t i = 0; i < 3000; ++i) v[i] = 1.0 + (i % 100) / 100.0;
  // A stall in the second third: every sample there is slow.
  for (size_t i = 1000; i < 2000; ++i) v[i] = 50.0;
  Summary s = Summarize(v);
  EXPECT_EQ(s.p99_blocks, 3u);
  EXPECT_DOUBLE_EQ(s.p99, 1.98);
  // Leftover samples join the blocks instead of being dropped.
  EXPECT_EQ(Summarize(std::vector<double>(1999, 2.0)).p99_blocks, 1u);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

ScheduleSpec Spec(uint64_t seed) {
  ScheduleSpec spec;
  spec.rate_sps = 200;
  spec.arrive_s = 3;
  spec.universe = 32;
  spec.zipf_s = 1.1;
  spec.patterns = 12;
  spec.think_min_ms = 5;
  spec.think_max_ms = 15;
  spec.seed = seed;
  return spec;
}

bool SamePlans(const std::vector<SessionPlan>& a,
               const std::vector<SessionPlan>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_ns != b[i].arrival_ns || a[i].query != b[i].query ||
        a[i].pattern != b[i].pattern || a[i].think_seed != b[i].think_seed) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, SameSeedSameTrafficOtherSeedOtherTraffic) {
  std::vector<SessionPlan> a = MakeSchedule(Spec(7));
  EXPECT_TRUE(SamePlans(a, MakeSchedule(Spec(7))));
  EXPECT_FALSE(SamePlans(a, MakeSchedule(Spec(8))));
  for (size_t op = 1; op < 30; ++op) {
    EXPECT_EQ(ThinkNs(Spec(7), a[0].think_seed, op),
              ThinkNs(Spec(7), a[0].think_seed, op));
  }
}

TEST(Schedule, ArrivalsAreOpenLoopPoissonAtTheOfferedRate) {
  std::vector<SessionPlan> plans = MakeSchedule(Spec(3));
  // 600 expected arrivals; a Poisson count stays within 5 sigma.
  EXPECT_NEAR(static_cast<double>(plans.size()), 600, 5 * 24.5);
  for (size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].arrival_ns, plans[i].arrival_ns);
  }
  EXPECT_LT(plans.back().arrival_ns, 3'000'000'000);
}

TEST(Schedule, DrawsStayInRangeAndZipfFavoursTheHead) {
  std::vector<SessionPlan> plans = MakeSchedule(Spec(11));
  size_t head = 0;
  for (const SessionPlan& p : plans) {
    EXPECT_LT(p.query, 32u);
    EXPECT_LT(p.pattern, 12u);
    head += p.query == 0;
  }
  // Zipf(1.1) over 32 ranks puts ~27% of the mass on rank 1.
  EXPECT_GT(head, plans.size() / 6);
  ScheduleSpec uniform = Spec(11);
  uniform.zipf_s = 0;
  head = 0;
  for (const SessionPlan& p : MakeSchedule(uniform)) head += p.query == 0;
  EXPECT_LT(head, plans.size() / 10);
}

TEST(Schedule, ThinkPausesStayInTheirWindow) {
  ScheduleSpec spec = Spec(5);
  for (uint64_t seed = 1; seed < 50; ++seed) {
    for (size_t op = 1; op < 20; ++op) {
      int64_t ns = ThinkNs(spec, seed * 0x9e3779b9, op);
      EXPECT_GE(ns, 5'000'000);
      EXPECT_LE(ns, 15'000'000);
    }
  }
}

Span At(int64_t start, int64_t end, int64_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, ChildrenAreSubtractedOnceAndClippedToTheParent) {
  std::vector<Span> spans = {
      At(0, 100, -1),   // 0: root
      At(10, 30, 0),    // 1
      At(20, 40, 0),    // 2: overlaps 1 -> union [10, 40)
      At(90, 120, 0),   // 3: runs past the parent -> counts [90, 100)
      At(12, 14, 1),    // 4: grandchild, not a direct child of 0
  };
  EXPECT_EQ(SelfTimeNs(spans, 0, {1, 2, 3}), 100 - 30 - 10);
  EXPECT_EQ(SelfTimeNs(spans, 1, {4}), 20 - 2);
  EXPECT_EQ(SelfTimeNs(spans, 4, {}), 2);
}

TEST(SelfTime, CoveredNsUnionsIntervals) {
  EXPECT_EQ(CoveredNs(0, 10, {}), 0);
  EXPECT_EQ(CoveredNs(0, 10, {{2, 4}, {3, 6}, {8, 20}}), 4 + 2);
  EXPECT_EQ(CoveredNs(5, 10, {{0, 20}}), 5);
  EXPECT_EQ(CoveredNs(0, 10, {{12, 20}}), 0);
}

}  // namespace
}  // namespace navbench
