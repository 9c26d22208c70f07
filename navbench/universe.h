// Query universes of the benchmark workloads and the in-process oracle
// that scripts each session.
#ifndef NAVBENCH_UNIVERSE_H_
#define NAVBENCH_UNIVERSE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bionav.h"
#include "schedule.h"

namespace navbench {

struct QueryEntry {
  std::string query;  // Wire query string.
  size_t result_size = 0;
};

/// Every "<Table I keyword> <filler term>" query of the corpus whose
/// result holds at least `min_results` citations, plus the bare keywords.
/// Each has its own result set (the filler term intersects the keyword's
/// postings), so no two entries share a navigation tree. Sorted by result
/// size, largest first, ties by query string.
std::vector<QueryEntry> CandidateQueries(const bionav::Workload& workload,
                                         size_t min_results);

/// Session shapes.
///  - explore: descend to a first deep concept, SHOWRESULTS, BACKTRACK to
///    the root, descend to a second deep concept, CLOSE. The pattern picks
///    the ordered target pair among kExploreTargets deep concepts.
///  - tail: EXPAND the root, EXPAND its largest revealed component when the
///    pattern is 1, SHOWRESULTS on the largest revealed concept, CLOSE.
enum class Shape { kExplore, kTail };
inline constexpr uint32_t kExploreTargets = 4;
uint32_t PatternCount(Shape shape);

/// Runs one session in process through NavigationSession, exactly as the
/// server will on the wire, and records its script and expected replies.
bionav::Result<Script> OracleScript(
    const bionav::EUtilsClient& eutils,
    std::shared_ptr<const bionav::QueryArtifacts> artifacts,
    const std::string& query, Shape shape, uint32_t pattern,
    const bionav::StrategyFactory& factory);

/// Reply digests shared by the oracle and the wire client.
uint64_t RevealedDigest(const std::vector<bionav::NavNodeId>& revealed);
uint64_t ShowDigest(uint64_t total, const std::vector<uint64_t>& pmids);

}  // namespace navbench

#endif  // NAVBENCH_UNIVERSE_H_
