#include "universe.h"

#include <algorithm>
#include <set>

namespace navbench {

using namespace bionav;

std::vector<QueryEntry> CandidateQueries(const Workload& workload,
                                         size_t min_results) {
  EUtilsClient eutils = workload.corpus().MakeClient();
  std::set<std::string> keywords;
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    keywords.insert(workload.query(i).spec.keyword);
  }
  std::vector<QueryEntry> out;
  for (const std::string& keyword : keywords) {
    size_t n = eutils.ESearchCount(keyword);
    if (n >= min_results) out.push_back({keyword, n});
    // The corpus generator's filler vocabulary is "bgterm0".."bgterm1999".
    for (int i = 0; i < 2000; ++i) {
      std::string query = keyword + " bgterm" + std::to_string(i);
      n = eutils.ESearchCount(query);
      if (n >= min_results) out.push_back({query, n});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryEntry& a, const QueryEntry& b) {
              if (a.result_size != b.result_size) {
                return a.result_size > b.result_size;
              }
              return a.query < b.query;
            });
  return out;
}

uint32_t PatternCount(Shape shape) {
  return shape == Shape::kExplore ? kExploreTargets * (kExploreTargets - 1)
                                  : 2;
}

uint64_t RevealedDigest(const std::vector<NavNodeId>& revealed) {
  uint64_t h = kFnvBasis;
  for (NavNodeId id : revealed) h = FnvMix(h, static_cast<uint64_t>(id));
  return FnvMix(h, revealed.size());
}

uint64_t ShowDigest(uint64_t total, const std::vector<uint64_t>& pmids) {
  uint64_t h = FnvMix(kFnvBasis, total);
  for (uint64_t pmid : pmids) h = FnvMix(h, pmid);
  return h;
}

namespace {

/// Deep concepts of a navigation tree, spread across it: attached nodes
/// of depth >= 2, deepest half, evenly strided in pre-order.
std::vector<NavNodeId> DeepTargets(const NavigationTree& nav, size_t want) {
  std::vector<NavNodeId> candidates;
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    if (nav.attached_count(id) > 0 && nav.NodeDepth(id) >= 2) {
      candidates.push_back(id);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](NavNodeId a, NavNodeId b) {
                     return nav.NodeDepth(a) > nav.NodeDepth(b);
                   });
  std::vector<NavNodeId> targets;
  size_t pool = std::max<size_t>(1, candidates.size() / 2);
  for (size_t k = 0; k < want && k < candidates.size(); ++k) {
    targets.push_back(candidates[(k * pool / want) % candidates.size()]);
  }
  return targets;
}

class Recorder {
 public:
  explicit Recorder(NavigationSession* session) : session_(session) {}

  Status Expand(NavNodeId node) {
    Result<std::vector<NavNodeId>> revealed = session_->Expand(node);
    if (!revealed.ok()) return revealed.status();
    const std::vector<NavNodeId>& ids = revealed.ValueOrDie();
    script_.ops.push_back({OpKind::kExpand, node, RevealedDigest(ids)});
    script_.nav_cost += 1 + static_cast<int64_t>(ids.size());
    fingerprint_ = FnvMix(fingerprint_, static_cast<uint64_t>(node));
    for (NavNodeId id : ids) fingerprint_ = FnvMix(fingerprint_, id);
    fingerprint_ = FnvMix(fingerprint_, ~uint64_t{0});
    last_revealed_ = ids;
    return Status::OK();
  }

  Status DescendTo(NavNodeId target) {
    const ActiveTree& active = session_->active_tree();
    for (int step = 0; !active.IsVisible(target); ++step) {
      if (step > 256) return Status::Internal("descent did not converge");
      Status s = Expand(active.ComponentRoot(active.ComponentOf(target)));
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Status Show(NavNodeId node) {
    auto shown = session_->ShowResults(node, 0, 20);
    if (!shown.ok()) return shown.status();
    std::vector<uint64_t> pmids;
    for (const CitationSummary& s : shown.ValueOrDie()) pmids.push_back(s.pmid);
    script_.ops.push_back(
        {OpKind::kShow, node, ShowDigest(pmids.size(), pmids)});
    return Status::OK();
  }

  void BacktrackAll() {
    while (session_->Backtrack()) {
      script_.ops.push_back({OpKind::kBacktrack, -1, 1});
    }
  }

  /// The visible revealed concept (of the last EXPAND) with the largest
  /// component; ties go to the lower id.
  NavNodeId LargestRevealed(size_t min_size) const {
    const ActiveTree& active = session_->active_tree();
    NavNodeId best = kInvalidNavNode;
    size_t best_size = 0;
    for (NavNodeId id : last_revealed_) {
      size_t size = active.ComponentSize(active.ComponentOf(id));
      if (size >= min_size && size > best_size) {
        best = id;
        best_size = size;
      }
    }
    return best;
  }

  Script& script() { return script_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  NavigationSession* session_;
  Script script_;
  uint64_t fingerprint_ = kFnvBasis;
  std::vector<NavNodeId> last_revealed_;
};

}  // namespace

Result<Script> OracleScript(const EUtilsClient& eutils,
                            std::shared_ptr<const QueryArtifacts> artifacts,
                            const std::string& query, Shape shape,
                            uint32_t pattern, const StrategyFactory& factory) {
  const NavigationTree& nav = *artifacts->nav;
  NavigationSession session(&eutils, artifacts, query, factory);
  Recorder rec(&session);
  rec.script().ops.push_back(
      {OpKind::kQuery, -1, static_cast<uint64_t>(session.result_size())});
  if (shape == Shape::kExplore) {
    std::vector<NavNodeId> targets = DeepTargets(nav, kExploreTargets);
    if (targets.size() < 2) {
      return Status::FailedPrecondition("query has too few deep concepts");
    }
    uint32_t first = pattern / (kExploreTargets - 1);
    uint32_t second = pattern % (kExploreTargets - 1);
    if (second >= first) ++second;
    NavNodeId t1 = targets[first % targets.size()];
    NavNodeId t2 = targets[second % targets.size()];
    if (t2 == t1) t2 = targets[(first + 1) % targets.size()];
    Status s = rec.DescendTo(t1);
    if (s.ok()) s = rec.Show(t1);
    if (s.ok()) {
      rec.BacktrackAll();
      s = rec.DescendTo(t2);
    }
    if (!s.ok()) return s;
  } else {
    Status s = rec.Expand(0);
    if (s.ok() && pattern == 1) {
      NavNodeId next = rec.LargestRevealed(2);
      if (next != kInvalidNavNode) s = rec.Expand(next);
    }
    if (!s.ok()) return s;
    NavNodeId shown = rec.LargestRevealed(1);
    if (shown == kInvalidNavNode) return Status::Internal("nothing revealed");
    s = rec.Show(shown);
    if (!s.ok()) return s;
  }
  rec.script().ops.push_back({OpKind::kClose, -1, 1});
  Script script = std::move(rec.script());
  script.fingerprint = rec.fingerprint();
  return script;
}

}  // namespace navbench
