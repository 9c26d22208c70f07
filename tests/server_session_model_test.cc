// Model-checked tests of the SessionManager's table. Seeded random step
// sequences — create, pool touch, reactor touch, pool and reactor CLOSE,
// SpillIdle, a capacity eviction from a deferred create, SpillAll and a
// warm restart into a new manager over the same directory — run on one
// thread with a fake clock and no sleeps. The DiskWork each reactor-side
// call leaves is held and run later in random order, which gives
// deterministic interleavings of the spill states' races without threads.
//
// A reference model mirrors every entry (resident, writing, cancelled,
// stale-file), every parked token (record in memory or on disk only),
// every closed token and every file, and predicts each call's outcome.
// After every step the manager must agree with it: live and parked counts,
// the files on disk, the table within max_sessions plus the writes in
// flight, and every op's reply equal to an in-process NavigationSession
// oracle driven with the same ops.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bionav.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;

constexpr size_t kMaxSessions = 4;
constexpr int64_t kSpillAfterMs = 100;
constexpr const char* kQueries[] = {"prothymosin", "cardiology", "neurology",
                                    "apoptosis", "necrosis"};

/// One manager entry as the model sees it. A held DiskWork names the entry,
/// not its token: a token restored twice has had two entries.
struct ModelEntry {
  enum Spill { kNone, kWriting, kCancelled, kStaleFile };
  std::string token;
  Spill spill = kNone;
  bool listed = true;
  int64_t last_used_ms = 0;
};
using EntryRef = std::shared_ptr<ModelEntry>;

/// The manager's table type, hashed the same way: SpillAll parks in the
/// table's iteration order, which decides whose in-memory records a later
/// park drops, so the model keeps its resident set in a map that sees the
/// same inserts and erases in the same order.
struct TokenHash {
  using is_transparent = void;
  size_t operator()(std::string_view token) const {
    return std::hash<std::string_view>()(token);
  }
};
using ResidentMap =
    std::unordered_map<std::string, EntryRef, TokenHash, std::equal_to<>>;

/// A DiskWork left by a reactor-side call, with what the model expects it
/// to hold.
struct HeldWork {
  SessionManager::DiskWork work;
  std::vector<EntryRef> spills;
  std::vector<EntryRef> unlinks;
  /// Tokens closed while parked, whose file is to go.
  std::vector<std::string> deletes;
};

/// The reference model of one SessionManager generation's table, plus the
/// files and closed tokens that outlive it.
class TableModel {
 public:
  bool Resident(const std::string& token) const {
    return resident_.count(token) != 0;
  }
  const EntryRef& Entry(const std::string& token) const {
    return resident_.at(token);
  }
  bool Parked(const std::string& token) const {
    return parked_.count(token) != 0;
  }
  bool InMemory(const std::string& token) const {
    auto it = parked_.find(token);
    return it != parked_.end() && it->second;
  }
  bool Closed(const std::string& token) const {
    return closed_.count(token) != 0;
  }
  bool Cached(const std::string& query) const {
    return cached_.count(query) != 0;
  }
  size_t resident_count() const { return resident_.size(); }
  size_t parked_count() const { return parked_.size(); }
  const std::set<std::string>& files() const { return files_; }
  std::set<std::string> parked_tokens() const {
    std::set<std::string> out;
    for (const auto& [token, in_memory] : parked_) out.insert(token);
    return out;
  }
  size_t writing() const {
    size_t n = 0;
    for (const auto& [token, entry] : resident_) n += Writing(*entry);
    return n;
  }

  /// A new session registered by CreateSession; its eviction victims are
  /// returned for the caller to finish (now, or when held work runs).
  std::vector<EntryRef> Create(const std::string& token,
                               const std::string& query, int64_t now) {
    cached_.insert(query);
    auto entry = std::make_shared<ModelEntry>();
    entry->token = token;
    entry->last_used_ms = now;
    Insert(entry);
    std::vector<EntryRef> victims;
    EvictToCapacity(&victims, nullptr);
    return victims;
  }

  /// A pool touch of a resident token.
  void Pin(const EntryRef& entry, int64_t now) {
    Touch(*entry, now);
    if (entry->spill == ModelEntry::kWriting) {
      entry->spill = ModelEntry::kCancelled;
    }
  }
  void Touch(ModelEntry& entry, int64_t now) {
    entry.last_used_ms = now;
    lru_.remove_if([&](const EntryRef& e) { return e.get() == &entry; });
    lru_.push_front(resident_.at(entry.token));
  }

  /// A restore of a parked token: the new entry, with its eviction victims
  /// in `victims`. `stale_file` leaves the token's file in place (the
  /// reactor's restore); otherwise the pool's restore has removed it by the
  /// time its call returns.
  EntryRef Restore(const std::string& token, const std::string& query,
                   int64_t now, bool stale_file,
                   std::vector<EntryRef>* victims) {
    Unpark(token);
    cached_.insert(query);
    auto entry = std::make_shared<ModelEntry>();
    entry->token = token;
    entry->last_used_ms = now;
    if (stale_file) {
      entry->spill = ModelEntry::kStaleFile;
    } else {
      files_.erase(token);
    }
    Insert(entry);
    EvictToCapacity(victims, entry.get());
    return entry;
  }

  /// CLOSE: true when the token was live. A parked token's file goes
  /// unless `defer_unlink`.
  bool Close(const std::string& token, bool defer_unlink) {
    if (Resident(token)) {
      Erase(resident_.at(token));
    } else if (Parked(token)) {
      Unpark(token);
      if (!defer_unlink) files_.erase(token);
    } else {
      return false;
    }
    closed_.insert(token);
    return true;
  }

  /// SpillIdle: the idle, spillable resident entries from the LRU tail,
  /// each written and parked in turn. Returns the number parked.
  size_t SpillIdle(int64_t now) {
    std::vector<EntryRef> candidates;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (now - (*it)->last_used_ms < kSpillAfterMs) break;
      if (Spillable(**it)) candidates.push_back(*it);
    }
    return SpillEach(candidates);
  }

  /// SpillAll: every spillable resident entry, in the table's order.
  size_t SpillAll() {
    std::vector<EntryRef> candidates;
    for (const auto& [token, entry] : resident_) candidates.push_back(entry);
    return SpillEach(candidates);
  }

  /// Writes begun spills as FinishSpills does, re-run evictions included.
  size_t FinishSpills(std::vector<EntryRef> spills) {
    size_t parked = 0;
    for (size_t i = 0; i < spills.size(); ++i) {
      EntryRef entry = spills[i];
      parked += FinishSpill(entry, &spills);
    }
    return parked;
  }

  /// A held DiskWork: its spills, its unlinks, then its deletes.
  void FinishDiskWork(const HeldWork& held) {
    FinishSpills(held.spills);
    for (const EntryRef& entry : held.unlinks) {
      if (entry->spill != ModelEntry::kStaleFile) continue;
      files_.erase(entry->token);
      entry->spill = ModelEntry::kNone;
    }
    for (const std::string& token : held.deletes) files_.erase(token);
  }

  /// A new manager generation over the same directory: nothing resident,
  /// every parked token adopted with its record on disk only, and an empty
  /// artifact cache.
  void Restart() {
    ASSERT_TRUE(resident_.empty());
    resident_ = ResidentMap();  // A new table starts with one bucket.
    lru_.clear();
    for (auto& [token, in_memory] : parked_) in_memory = false;
    records_by_age_.clear();
    cached_.clear();
  }

 private:
  static bool Writing(const ModelEntry& entry) {
    return entry.spill == ModelEntry::kWriting ||
           entry.spill == ModelEntry::kCancelled;
  }
  static bool Spillable(const ModelEntry& entry) {
    return entry.spill == ModelEntry::kNone ||
           entry.spill == ModelEntry::kStaleFile;
  }

  void Insert(const EntryRef& entry) {
    resident_.emplace(entry->token, entry);
    lru_.push_front(entry);
  }
  /// By value: the caller's reference may be the map's own slot.
  void Erase(EntryRef entry) {
    lru_.remove(entry);
    resident_.erase(entry->token);
    entry->listed = false;
  }
  void Unpark(const std::string& token) {
    parked_.erase(token);
    auto age = std::find(records_by_age_.begin(), records_by_age_.end(), token);
    if (age != records_by_age_.end()) records_by_age_.erase(age);
  }
  void Park(const std::string& token) {
    parked_[token] = true;
    records_by_age_.push_back(token);
    if (records_by_age_.size() > kMaxSessions) {
      parked_[records_by_age_.front()] = false;
      records_by_age_.pop_front();
    }
  }

  /// The victim is the LRU tail, skipping entries being written and the
  /// one `pinned` by the caller's operation.
  void EvictToCapacity(std::vector<EntryRef>* victims,
                       const ModelEntry* pinned) {
    auto it = lru_.rbegin();
    while (resident_.size() - writing() > kMaxSessions) {
      while (it != lru_.rend() &&
             (it->get() == pinned || !Spillable(**it))) {
        ++it;
      }
      if (it == lru_.rend()) break;
      (*it)->spill = ModelEntry::kWriting;
      victims->push_back(*it);
      ++it;
    }
  }

  size_t SpillEach(const std::vector<EntryRef>& candidates) {
    size_t parked = 0;
    for (const EntryRef& entry : candidates) {
      if (!entry->listed || !Spillable(*entry)) continue;
      entry->spill = ModelEntry::kWriting;
      parked += FinishSpills({entry});
    }
    return parked;
  }

  bool FinishSpill(const EntryRef& entry, std::vector<EntryRef>* evicted) {
    files_.insert(entry->token);
    if (entry->listed && entry->spill == ModelEntry::kWriting) {
      Park(entry->token);
      Erase(entry);
      entry->spill = ModelEntry::kNone;
      return true;
    }
    // A touch or CLOSE won: the written file goes, and a session that
    // stays counts against capacity again.
    files_.erase(entry->token);
    entry->spill = ModelEntry::kNone;
    EvictToCapacity(evicted, nullptr);
    return false;
  }

  ResidentMap resident_;
  /// Most recently used first.
  std::list<EntryRef> lru_;
  /// Parked token -> its record is in memory.
  std::map<std::string, bool> parked_;
  std::deque<std::string> records_by_age_;
  std::set<std::string> closed_;
  std::set<std::string> files_;
  /// Queries whose artifacts this generation's cache holds.
  std::set<std::string> cached_;
};

/// Drives one seeded run against a manager and the model.
class ModelRun {
 public:
  ModelRun(const MiniFixture* fixture, uint64_t seed)
      : fixture_(fixture), rng_(seed) {
    // The pid keeps two concurrent runs of the suite out of each other's
    // directories.
    dir_ = ::testing::TempDir() + "bionav_model_" +
           std::to_string(::getpid()) + "_" + std::to_string(seed);
    std::filesystem::remove_all(dir_);
    options_.max_sessions = kMaxSessions;
    options_.ttl_ms = 0;
    options_.spill_dir = dir_;
    options_.spill_after_ms = kSpillAfterMs;
    options_.clock = [this] { return now_; };
    manager_ = MakeManager();
  }
  ~ModelRun() {
    manager_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Run(int steps) {
    for (step_ = 0; step_ < steps && !::testing::Test::HasFailure();
         ++step_) {
      now_ += static_cast<int64_t>(rng_.Uniform(40));
      Step();
      Check();
    }
    if (::testing::Test::HasFailure()) {
      std::string trace;
      for (const std::string& line : history_) trace += line + "\n";
      ADD_FAILURE() << "steps of the failing run:\n" << trace;
    }
  }

 private:
  std::unique_ptr<SessionManager> MakeManager() {
    return std::make_unique<SessionManager>(
        &fixture_->mesh, fixture_->eutils.get(), MakeBioNavStrategyFactory(),
        options_);
  }

  std::string Where() const {
    return "step " + std::to_string(step_) + ": ";
  }
  /// Records a step for the failure report.
  void Note(const std::string& what) {
    history_.push_back(Where() + what + " at " + std::to_string(now_) +
                       " ms");
  }

  void Step() {
    const uint64_t pick = rng_.Uniform(100);
    if (pick < 10) return CreateOnPool();
    if (pick < 20) return CreateDeferred();
    if (pick < 42) return TouchOnPool();
    if (pick < 67) return TouchOnReactor();
    if (pick < 71) return CloseOnPool();
    if (pick < 75) return CloseOnReactor();
    if (pick < 83) return SpillIdle();
    if (pick < 86) return SpillAll();
    if (pick < 99) return RunHeldWork();
    return WarmRestart();
  }

  const std::string& PickQuery() {
    static const std::vector<std::string> queries(std::begin(kQueries),
                                                  std::end(kQueries));
    return queries[rng_.Uniform(queries.size())];
  }

  /// A minted token, live ones most of the time; empty before the first.
  std::string PickToken() {
    if (tokens_.empty()) return "";
    std::vector<std::string> live;
    for (const std::string& token : tokens_) {
      if (!model_.Closed(token)) live.push_back(token);
    }
    if (!live.empty() && rng_.Uniform(10) != 0) {
      return live[rng_.Uniform(live.size())];
    }
    return tokens_[rng_.Uniform(tokens_.size())];
  }

  void Register(const std::string& token, const std::string& query) {
    ASSERT_EQ(queries_.count(token), 0u) << Where() << token << " reused";
    tokens_.push_back(token);
    queries_[token] = query;
    auto& artifacts = artifacts_[query];
    if (artifacts == nullptr) {
      artifacts = BuildQueryArtifacts(fixture_->mesh, *fixture_->eutils, query,
                                      CostModelParams());
    }
    oracles_[token] = std::make_unique<NavigationSession>(
        fixture_->eutils.get(), artifacts, query, MakeBioNavStrategyFactory());
  }

  void CreateOnPool() {
    const std::string& query = PickQuery();
    auto created = manager_->CreateSession(query);
    ASSERT_TRUE(created.ok()) << Where() << created.status().ToString();
    const std::string& token = created.ValueOrDie().token;
    Note("create " + token + " (" + query + ")");
    Register(token, query);
    model_.FinishSpills(model_.Create(token, query, now_));
  }

  void CreateDeferred() {
    const std::string& query = PickQuery();
    HeldWork held;
    auto created = manager_->CreateSession(query, &held.work);
    if (!created.ok()) {
      Note("deferred create of " + query + " declined");
      // Declined: an inline QUERY builds nothing.
      EXPECT_FALSE(model_.Cached(query))
          << Where() << created.status().ToString();
      EXPECT_TRUE(held.work.empty()) << Where();
      return;
    }
    const std::string& token = created.ValueOrDie().token;
    Note("deferred create " + token + " (" + query + ")");
    Register(token, query);
    held.spills = model_.Create(token, query, now_);
    Hold(std::move(held));
  }

  /// The op a touch runs, chosen before it runs so that the managed
  /// session and its oracle get the same one.
  struct Op {
    int kind = 0;
    NavNodeId node = NavigationTree::kRoot;
  };
  Op PickOp(const std::string& token) {
    Op op;
    op.kind = static_cast<int>(rng_.Uniform(3));
    auto oracle = oracles_.find(token);
    if (oracle == oracles_.end()) return op;
    const NavigationSession& session = *oracle->second;
    const size_t size = session.navigation_tree().size();
    std::vector<NavNodeId> visible;
    for (size_t i = 0; i < size; ++i) {
      if (session.active_tree().IsVisible(static_cast<NavNodeId>(i))) {
        visible.push_back(static_cast<NavNodeId>(i));
      }
    }
    op.node = rng_.Uniform(4) != 0 && !visible.empty()
                  ? visible[rng_.Uniform(visible.size())]
                  : static_cast<NavNodeId>(rng_.Uniform(size + 1));
    return op;
  }
  static std::string Apply(NavigationSession& session, const Op& op) {
    std::string out;
    switch (op.kind) {
      case 0: {
        auto revealed = session.Expand(op.node);
        if (!revealed.ok()) {
          out = "expand error " + revealed.status().ToString();
          break;
        }
        out = "expand";
        for (NavNodeId node : revealed.ValueOrDie()) {
          out += " " + std::to_string(node);
        }
        break;
      }
      case 1: out = session.Backtrack() ? "backtrack" : "no backtrack"; break;
      default: {
        auto shown = session.ShowResults(op.node);
        if (!shown.ok()) {
          out = "show error " + shown.status().ToString();
          break;
        }
        out = "show";
        for (const CitationSummary& c : shown.ValueOrDie()) {
          out += " " + std::to_string(c.pmid);
        }
      }
    }
    return out + " | log " + std::to_string(session.expand_log().size());
  }
  std::string ApplyToOracle(const std::string& token, const Op& op) {
    return Apply(*oracles_.at(token), op);
  }

  void TouchOnPool() {
    const std::string token = PickToken();
    if (token.empty()) return;
    const Op op = PickOp(token);
    Note("pool touch " + token);
    std::string reply;
    Status status =
        manager_->WithSession(token, [&](NavigationSession& session) {
          reply = Apply(session, op);
          return Status::OK();
        });
    if (model_.Closed(token)) {
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << Where() << token;
      return;
    }
    ASSERT_TRUE(status.ok()) << Where() << token << ": " << status.ToString();
    EXPECT_EQ(reply, ApplyToOracle(token, op)) << Where() << token;
    if (model_.Resident(token)) {
      model_.Pin(model_.Entry(token), now_);
    } else {
      std::vector<EntryRef> victims;
      model_.Restore(token, queries_.at(token), now_, /*stale_file=*/false,
                     &victims);
      model_.FinishSpills(std::move(victims));
    }
  }

  void TouchOnReactor() {
    const std::string token = PickToken();
    if (token.empty()) return;
    const Op op = PickOp(token);
    const bool serve = rng_.Uniform(5) != 0;
    Note("reactor touch " + token + (serve ? "" : " (declining)"));
    std::string reply;
    HeldWork held;
    const bool served = manager_->TryWithSession(
        token,
        [&](NavigationSession& session) {
          if (!serve) return false;
          reply = Apply(session, op);
          return true;
        },
        &held.work);

    // What the model expects the reactor to do.
    EntryRef entry;
    if (model_.Resident(token)) {
      entry = model_.Entry(token);
      if (entry->spill == ModelEntry::kWriting ||
          entry->spill == ModelEntry::kCancelled) {
        entry = nullptr;  // Being written: declined.
      }
    } else if (model_.InMemory(token) &&
               model_.Cached(queries_.at(token))) {
      entry = model_.Restore(token, queries_.at(token), now_,
                             /*stale_file=*/true, &held.spills);
      held.unlinks.push_back(entry);
    }
    EXPECT_EQ(served, entry != nullptr && serve) << Where() << token;
    if (served) {
      EXPECT_EQ(reply, ApplyToOracle(token, op)) << Where() << token;
      model_.Touch(*entry, now_);
    }
    EXPECT_EQ(held.work.empty(), held.spills.empty() && held.unlinks.empty())
        << Where() << token;
    if (!held.work.empty()) Hold(std::move(held));
  }

  void CloseOnPool() {
    const std::string token = PickToken();
    if (token.empty()) return;
    Note("close " + token);
    const bool live = model_.Close(token, /*defer_unlink=*/false);
    EXPECT_EQ(manager_->Close(token), live) << Where() << token;
    oracles_.erase(token);
  }

  /// The reactor's CLOSE: never declines, and a parked token's unlink is
  /// held.
  void CloseOnReactor() {
    const std::string token = PickToken();
    if (token.empty()) return;
    Note("reactor close " + token);
    HeldWork held;
    const bool parked = model_.Parked(token);
    const bool live = model_.Close(token, /*defer_unlink=*/true);
    EXPECT_EQ(manager_->Close(token, &held.work), live) << Where() << token;
    oracles_.erase(token);
    if (parked) held.deletes.push_back(token);
    EXPECT_EQ(held.work.empty(), held.deletes.empty()) << Where() << token;
    if (!held.work.empty()) Hold(std::move(held));
  }

  void SpillIdle() {
    Note("spill idle");
    EXPECT_EQ(manager_->SpillIdle(), model_.SpillIdle(now_)) << Where();
  }

  void SpillAll() {
    Note("spill all");
    EXPECT_EQ(manager_->SpillAll(), model_.SpillAll()) << Where();
  }

  void Hold(HeldWork held) { held_.push_back(std::move(held)); }

  /// Runs one held DiskWork, chosen at random.
  void RunHeldWork() {
    if (held_.empty()) return;
    const size_t i = rng_.Uniform(held_.size());
    Note("run held work " + std::to_string(i) + " of " +
         std::to_string(held_.size()));
    HeldWork held = std::move(held_[i]);
    held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    manager_->FinishDiskWork(std::move(held.work));
    model_.FinishDiskWork(held);
  }

  /// A drain, SpillAll and restart: the next manager adopts every parked
  /// token from disk.
  void WarmRestart() {
    while (!held_.empty()) RunHeldWork();
    Check();
    Note("warm restart");
    EXPECT_EQ(manager_->SpillAll(), model_.SpillAll()) << Where();
    manager_.reset();
    manager_ = MakeManager();
    model_.Restart();
  }

  std::set<std::string> FilesOnDisk() const {
    std::vector<std::string> listed = SpillStore(dir_).ListTokens();
    return std::set<std::string>(listed.begin(), listed.end());
  }

  void Check() {
    const SessionManagerStats stats = manager_->stats();
    EXPECT_EQ(stats.active, model_.resident_count()) << Where();
    EXPECT_EQ(stats.spilled_now, model_.parked_count()) << Where();
    EXPECT_LE(stats.active, kMaxSessions + model_.writing()) << Where();

    const std::set<std::string> files = FilesOnDisk();
    EXPECT_EQ(files, model_.files()) << Where();
    // Every file belongs to a parked token or to one that held work names;
    // with no work held, the files are exactly the parked tokens.
    std::set<std::string> owners = model_.parked_tokens();
    for (const HeldWork& held : held_) {
      for (const auto* list : {&held.spills, &held.unlinks}) {
        for (const EntryRef& entry : *list) owners.insert(entry->token);
      }
      owners.insert(held.deletes.begin(), held.deletes.end());
    }
    for (const std::string& file : files) {
      EXPECT_EQ(owners.count(file), 1u) << Where() << "stray file " << file;
    }
    if (held_.empty()) {
      EXPECT_EQ(files, model_.parked_tokens()) << Where();
    }
  }

  const MiniFixture* fixture_;
  Rng rng_;
  std::string dir_;
  int64_t now_ = 0;
  int step_ = 0;
  SessionManagerOptions options_;
  std::unique_ptr<SessionManager> manager_;
  TableModel model_;
  std::vector<HeldWork> held_;
  std::vector<std::string> history_;
  std::vector<std::string> tokens_;
  std::map<std::string, std::string> queries_;
  std::map<std::string, std::shared_ptr<const QueryArtifacts>> artifacts_;
  std::map<std::string, std::unique_ptr<NavigationSession>> oracles_;
};

/// Runs seeds [first, first + count), ~200 steps each.
void RunSeeds(uint64_t first, uint64_t count) {
  MiniFixture fixture;
  for (uint64_t seed = first; seed < first + count; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelRun(&fixture, seed).Run(200);
    if (::testing::Test::HasFailure()) return;
  }
}

// 1,000 seeds in four blocks, so a parallel ctest spreads them.
TEST(SessionManagerModel, Seeds0To249) { RunSeeds(0, 250); }
TEST(SessionManagerModel, Seeds250To499) { RunSeeds(250, 250); }
TEST(SessionManagerModel, Seeds500To749) { RunSeeds(500, 250); }
TEST(SessionManagerModel, Seeds750To999) { RunSeeds(750, 250); }

}  // namespace
}  // namespace bionav
