#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace navbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kExpand:
      return "expand";
    case OpKind::kShow:
      return "show";
    case OpKind::kBacktrack:
      return "backtrack";
    case OpKind::kClose:
      return "close";
  }
  return "?";
}

std::vector<SessionPlan> MakeSchedule(const ScheduleSpec& spec) {
  bionav::Rng rng(spec.seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull);
  std::vector<double> cdf;
  if (spec.zipf_s > 0) {
    double acc = 0;
    for (size_t k = 1; k <= spec.universe; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), spec.zipf_s);
      cdf.push_back(acc);
    }
    for (double& c : cdf) c /= acc;
  }
  std::vector<SessionPlan> plans;
  const double window_ns = spec.arrive_s * 1e9;
  double t = 0;
  while (true) {
    // Exponential inter-arrival gaps: a Poisson stream of independent users.
    t += -std::log(1.0 - rng.UniformDouble()) / spec.rate_sps * 1e9;
    if (t >= window_ns) break;
    SessionPlan plan;
    plan.arrival_ns = static_cast<int64_t>(t);
    if (spec.zipf_s > 0) {
      double u = rng.UniformDouble();
      plan.query = static_cast<uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      plan.query = std::min<uint32_t>(
          plan.query, static_cast<uint32_t>(spec.universe - 1));
    } else {
      plan.query = static_cast<uint32_t>(rng.Uniform(spec.universe));
    }
    plan.pattern = static_cast<uint32_t>(rng.Uniform(spec.patterns));
    plan.think_seed = rng.Next();
    plans.push_back(plan);
  }
  return plans;
}

int64_t ThinkNs(const ScheduleSpec& spec, uint64_t think_seed,
                size_t op_index) {
  // splitmix64 of (seed, op): independent pauses without per-session state.
  uint64_t h = think_seed + (op_index + 1) * 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  // Top 53 bits as a uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  double ms = spec.think_min_ms + u * (spec.think_max_ms - spec.think_min_ms);
  return static_cast<int64_t>(ms * 1e6);
}

}  // namespace navbench
