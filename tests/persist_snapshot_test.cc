// Snapshot round-trip property suite for src/persist/: encode/decode field
// fidelity, restore-rebuilds-an-identical-session under every strategy
// (deep expand/backtrack histories, empty and large result sets), the
// byte-truncation and bit-flip sweeps (typed kDataLoss, never a crash),
// and the SpillStore's atomic file tier (token escaping, manifest).

#include "persist/session_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bionav.h"
#include "persist/spill_store.h"
#include "test_support.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;

/// Fresh, empty scratch directory under the gtest temp root.
std::string MakeScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "bionav_persist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Drives `session` through up to `steps` EXPANDs, each time expanding the
/// lowest-numbered node that accepts one, and returns how many were
/// applied. Deterministic, and indifferent to the session's prior history
/// (works on freshly restored sessions too).
int ExpandSteps(NavigationSession* session, int steps) {
  int done = 0;
  const NavNodeId n =
      static_cast<NavNodeId>(session->navigation_tree().size());
  bool progressed = true;
  while (done < steps && progressed) {
    progressed = false;
    for (NavNodeId id = 0; id < n; ++id) {
      if (session->Expand(id).ok()) {
        ++done;
        progressed = true;
        break;
      }
    }
  }
  return done;
}

/// Asserts `restored` is indistinguishable from `original`: same rendered
/// active tree, same replay log, and every further BACKTRACK stays in
/// lockstep until both histories are empty.
void ExpectSessionsEquivalent(NavigationSession& original,
                              NavigationSession& restored) {
  EXPECT_EQ(original.result_size(), restored.result_size());
  EXPECT_EQ(original.strategy_name(), restored.strategy_name());
  ASSERT_EQ(original.expand_log().size(), restored.expand_log().size());
  for (size_t i = 0; i < original.expand_log().size(); ++i) {
    EXPECT_EQ(original.expand_log()[i].root, restored.expand_log()[i].root);
    EXPECT_EQ(original.expand_log()[i].cut.cut_children,
              restored.expand_log()[i].cut.cut_children);
  }
  EXPECT_EQ(original.Render(), restored.Render());
  for (int guard = 0; guard < 1000; ++guard) {
    bool a = original.Backtrack();
    bool b = restored.Backtrack();
    ASSERT_EQ(a, b) << "backtrack diverged at step " << guard;
    if (!a) break;
    EXPECT_EQ(original.Render(), restored.Render())
        << "backtrack step " << guard;
  }
}

class PersistSnapshotTest : public ::testing::Test {
 protected:
  NavigationSession MakeSession(const StrategyFactory& factory,
                                const std::string& query = "prothymosin") {
    return NavigationSession(&fixture_.mesh, fixture_.eutils.get(), query,
                             factory);
  }

  MiniFixture fixture_;
};

TEST_F(PersistSnapshotTest, EncodeDecodePreservesEveryField) {
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 3), 1);

  SessionSnapshot snap = SnapshotSession(session, "shard0-s42", 1234567);
  EXPECT_EQ(snap.token, "shard0-s42");
  EXPECT_EQ(snap.query, "prothymosin");
  EXPECT_EQ(snap.strategy_name, session.strategy_name());
  EXPECT_EQ(snap.result_size, 8u);
  EXPECT_EQ(snap.saved_unix_ms, 1234567);
  EXPECT_EQ(snap.expands.size(), session.expand_log().size());

  std::string record = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const SessionSnapshot& d = decoded.ValueOrDie();
  EXPECT_EQ(d.token, snap.token);
  EXPECT_EQ(d.query, snap.query);
  EXPECT_EQ(d.strategy_name, snap.strategy_name);
  EXPECT_EQ(d.result_size, snap.result_size);
  EXPECT_EQ(d.saved_unix_ms, snap.saved_unix_ms);
  ASSERT_EQ(d.expands.size(), snap.expands.size());
  for (size_t i = 0; i < d.expands.size(); ++i) {
    EXPECT_EQ(d.expands[i].root, snap.expands[i].root);
    EXPECT_EQ(d.expands[i].cut.cut_children,
              snap.expands[i].cut.cut_children);
  }
}

TEST_F(PersistSnapshotTest, RestoreRebuildsIdenticalSessionBioNav) {
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 4), 2);

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST_F(PersistSnapshotTest, RestoreRebuildsIdenticalSessionStatic) {
  NavigationSession session = MakeSession(MakeStaticStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 4), 2);

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeStaticStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST_F(PersistSnapshotTest, RestoreWithoutSharedArtifactsRebuildsCold) {
  // Rebuild the artifacts from the query string instead of sharing the
  // original session's bundle — what a restarted server with a cold cache
  // does before replaying a parked snapshot.
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 3), 1);

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  std::shared_ptr<const QueryArtifacts> rebuilt = BuildQueryArtifacts(
      fixture_.mesh, *fixture_.eutils, snap.query, CostModelParams());
  auto restored = RestoreSession(snap, fixture_.eutils.get(),
                                 std::move(rebuilt),
                                 MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST_F(PersistSnapshotTest, RoundTripAfterBacktracks) {
  // The log persists what a BACKTRACK would undo, so snapshotting after
  // undos must capture the *current* history, not the historical maximum.
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  int applied = ExpandSteps(&session, 4);
  ASSERT_GE(applied, 2);
  ASSERT_TRUE(session.Backtrack());
  ASSERT_TRUE(session.Backtrack());
  EXPECT_EQ(session.expand_log().size(), static_cast<size_t>(applied - 2));

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  EXPECT_EQ(snap.expands.size(), static_cast<size_t>(applied - 2));
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST_F(PersistSnapshotTest, RestoredSessionExpandsLikeTheOriginal) {
  // Post-restore EXPANDs must consult the same strategy over the same tree:
  // run the identical next action on both sides and compare.
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 2), 1);

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  NavigationSession& twin = *restored.ValueOrDie();

  int more_original = ExpandSteps(&session, 2);
  int more_restored = ExpandSteps(&twin, 2);
  EXPECT_EQ(more_original, more_restored);
  EXPECT_EQ(session.Render(), twin.Render());
}

TEST_F(PersistSnapshotTest, EmptyResultSessionRoundTrips) {
  NavigationSession session =
      MakeSession(MakeBioNavStrategyFactory(), "no-such-keyword-xyzzy");
  EXPECT_EQ(session.result_size(), 0u);

  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  std::string record = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto restored =
      RestoreSession(decoded.ValueOrDie(), fixture_.eutils.get(),
                     session.artifacts(), MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST(PersistSnapshotPropertyTest, LargeRandomInstanceDeepHistory) {
  RandomInstance instance(/*seed=*/7, /*hierarchy_nodes=*/600,
                          /*result_size=*/400, /*target_depth=*/4);
  EUtilsClient eutils = instance.corpus->MakeClient();
  const std::string& keyword = instance.corpus->queries[0].spec.keyword;

  NavigationSession session(&instance.hierarchy, &eutils, keyword,
                            MakeBioNavStrategyFactory());
  EXPECT_EQ(session.result_size(), 400u);
  ASSERT_GE(ExpandSteps(&session, 8), 3);
  ASSERT_TRUE(session.Backtrack());

  SessionSnapshot snap = SnapshotSession(session, "big", 99);
  std::string record = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto restored = RestoreSession(decoded.ValueOrDie(), &eutils,
                                 session.artifacts(),
                                 MakeBioNavStrategyFactory());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSessionsEquivalent(session, *restored.ValueOrDie());
}

TEST_F(PersistSnapshotTest, StrategyMismatchIsFailedPrecondition) {
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeStaticStrategyFactory());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistSnapshotTest, ResultSizeMismatchIsFailedPrecondition) {
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  snap.result_size += 1;  // "The corpus changed under the spill dir."
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeBioNavStrategyFactory());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistSnapshotTest, StaleReplayIsDataLoss) {
  NavigationSession session = MakeSession(MakeBioNavStrategyFactory());
  ASSERT_GE(ExpandSteps(&session, 2), 1);
  SessionSnapshot snap = SnapshotSession(session, "t", 0);
  // A root far outside the tree: the replay no longer describes it.
  snap.expands[0].root = 1 << 20;
  auto restored =
      RestoreSession(snap, fixture_.eutils.get(), session.artifacts(),
                     MakeBioNavStrategyFactory());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Corruption sweeps: decode must answer arbitrary bytes with a typed error.
// ---------------------------------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NavigationSession session(&fixture_.mesh, fixture_.eutils.get(),
                              "prothymosin", MakeBioNavStrategyFactory());
    ASSERT_GE(ExpandSteps(&session, 3), 1);
    record_ = EncodeSnapshot(SnapshotSession(session, "shard0-s7", 55));
    ASSERT_GT(record_.size(), kSealedRecordHeaderBytes);
    ASSERT_TRUE(DecodeSnapshot(record_).ok());
  }

  MiniFixture fixture_;
  std::string record_;
};

TEST_F(SnapshotCorruptionTest, EveryTruncationIsDataLoss) {
  for (size_t len = 0; len < record_.size(); ++len) {
    auto decoded = DecodeSnapshot(std::string_view(record_).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "prefix " << len << ": " << decoded.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, EverySingleBitFlipIsDataLoss) {
  // CRC-32 detects all single-bit errors, and header damage (magic, length,
  // stored checksum) is caught structurally, so every flip is kDataLoss.
  for (size_t i = 0; i < record_.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string corrupt = record_;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      auto decoded = DecodeSnapshot(corrupt);
      ASSERT_FALSE(decoded.ok()) << "byte " << i << " bit " << bit;
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageIsDataLoss) {
  auto decoded = DecodeSnapshot(record_ + "xyz");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, LengthLieIsDataLoss) {
  // Claim one payload byte fewer than are present (and vice versa).
  for (int delta : {-1, 1}) {
    std::string corrupt = record_;
    uint32_t len = static_cast<uint8_t>(corrupt[4]) |
                   static_cast<uint8_t>(corrupt[5]) << 8 |
                   static_cast<uint8_t>(corrupt[6]) << 16 |
                   static_cast<uint8_t>(corrupt[7]) << 24;
    len = static_cast<uint32_t>(static_cast<int64_t>(len) + delta);
    corrupt[4] = static_cast<char>(len & 0xFF);
    corrupt[5] = static_cast<char>((len >> 8) & 0xFF);
    corrupt[6] = static_cast<char>((len >> 16) & 0xFF);
    corrupt[7] = static_cast<char>((len >> 24) & 0xFF);
    auto decoded = DecodeSnapshot(corrupt);
    ASSERT_FALSE(decoded.ok()) << "delta " << delta;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(SnapshotFormatTest, UnknownVersionIsInvalidArgument) {
  // A structurally valid record (magic, length, matching CRC) carrying
  // payload version 99: not corruption — an incompatibility.
  std::string record =
      SealRecord(kSnapshotMagic, std::string(1, static_cast<char>(99)));
  auto decoded = DecodeSnapshot(record);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

/// Offsets of the rewritable varints of a canonical snapshot payload: the
/// string lengths, result size, expand count, and every expand's root, cut
/// size and cut children.
std::vector<size_t> SnapshotFieldOffsets(std::string_view payload) {
  std::vector<size_t> offsets;
  size_t pos = 0;
  uint64_t v = 0;
  auto field = [&] {
    offsets.push_back(pos);
    BIONAV_CHECK(ReadVarint(payload, &pos, &v));
    return v;
  };
  BIONAV_CHECK(ReadVarint(payload, &pos, &v));  // version
  for (int s = 0; s < 3; ++s) pos += static_cast<size_t>(field());
  field();                                      // result_size
  BIONAV_CHECK(ReadVarint(payload, &pos, &v));  // saved_unix_ms
  for (uint64_t expands = field(); expands > 0; --expands) {
    field();
    for (uint64_t children = field(); children > 0; --children) field();
  }
  BIONAV_CHECK_EQ(pos, payload.size());
  return offsets;
}

TEST(SnapshotFormatTest, ResealedMutationFuzzRejectsOrRoundTrips) {
  // Synthetic snapshots: the codec only frames fields, so no session is
  // needed to exercise it.
  Rng shapes(0xB5511);
  std::vector<std::string> payloads;
  std::vector<std::vector<size_t>> fields;
  for (int i = 0; i < 4; ++i) {
    SessionSnapshot snap;
    snap.token = "shard" + std::to_string(i) + "-s" + std::to_string(7 * i);
    snap.query = i % 2 == 0 ? "prothymosin" : "breast \"cancer\" \xc3\xa9";
    snap.strategy_name = "bionav";
    snap.result_size = 1 + shapes.Uniform(uint64_t{1} << (8 * i + 4));
    snap.saved_unix_ms = i == 3 ? -55 : 1700000000000 + i;
    for (uint64_t e = 3 * i; e > 0; --e) {
      ExpandRecord rec;
      rec.root = static_cast<NavNodeId>(shapes.Uniform(5000));
      for (uint64_t c = shapes.Uniform(6); c > 0; --c) {
        rec.cut.cut_children.push_back(
            static_cast<NavNodeId>(shapes.Uniform(300000)));
      }
      snap.expands.push_back(rec);
    }
    std::string record = EncodeSnapshot(snap);
    payloads.push_back(record.substr(kSealedRecordHeaderBytes));
    fields.push_back(SnapshotFieldOffsets(payloads.back()));
  }

  Rng rng(0xB5F022);
  auto mutate = [&](std::string* p) {
    const size_t at = p->empty() ? 0 : rng.Uniform(p->size());
    switch (rng.Uniform(4)) {
      case 0:  // bit flip
        if (at < p->size()) {
          (*p)[at] = static_cast<char>((*p)[at] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 1:  // insert a byte
        p->insert(at, 1, static_cast<char>(rng.Uniform(256)));
        break;
      case 2:  // delete a short run
        if (!p->empty()) p->erase(at, 1 + rng.Uniform(4));
        break;
      default: {  // overwrite a run with a run of another record
        const std::string& other = payloads[rng.Uniform(payloads.size())];
        size_t from = rng.Uniform(other.size());
        size_t len = 1 + rng.Uniform(std::min<size_t>(32, other.size() - from));
        p->replace(at, rng.Uniform(33), other, from, len);
        break;
      }
    }
  };

  constexpr int kIterations = 200000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    size_t which = rng.Uniform(payloads.size());
    std::string payload = payloads[which];
    const bool rewrite_field = rng.Bernoulli(0.5);
    if (rewrite_field) {
      const std::vector<size_t>& offsets = fields[which];
      size_t at = offsets[rng.Uniform(offsets.size())];
      size_t end = at;
      uint64_t old = 0;
      BIONAV_CHECK(ReadVarint(payload, &end, &old));
      std::string encoded;
      switch (rng.Uniform(4)) {
        case 0: AppendVarint(&encoded, old + 1 + rng.Uniform(3)); break;
        case 1: AppendVarint(&encoded, old > 0 ? old - 1 : 0); break;
        case 2: AppendVarint(&encoded, uint64_t{1} << rng.Uniform(64)); break;
        default:  // the same value, overlong
          AppendVarint(&encoded, old);
          encoded.back() = static_cast<char>(encoded.back() | 0x80);
          encoded.push_back('\0');
          break;
      }
      payload.replace(at, end - at, encoded);
    }
    // Every case mutates at least once.
    for (uint64_t m = rng.Uniform(3) + (rewrite_field ? 0 : 1); m > 0; --m) {
      mutate(&payload);
    }

    const std::string record = SealRecord(kSnapshotMagic, payload);
    auto decoded = DecodeSnapshot(record);
    if (!decoded.ok()) {
      ASSERT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
                  decoded.status().code() == StatusCode::kInvalidArgument)
          << "iteration " << iter << ": " << decoded.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(EncodeSnapshot(decoded.ValueOrDie()), record)
        << "iteration " << iter << " decoded to a different snapshot";
  }
  // Both outcomes occur, so the sweep reaches past the CRC.
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, kIterations / 10);
}

TEST(SnapshotFormatTest, Crc32MatchesIeeeCheckValue) {
  // The canonical CRC-32/IEEE check value; pins the polynomial and
  // reflection so on-disk records stay readable across builds.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// ---------------------------------------------------------------------------
// SpillStore: the one-file-per-token directory tier.
// ---------------------------------------------------------------------------

TEST(SpillStoreTest, PutGetDeleteListRoundTrip) {
  SpillStore store(MakeScratchDir("roundtrip"));
  ASSERT_TRUE(store.Init().ok());

  ASSERT_TRUE(store.Put("shard0-s1", "alpha").ok());
  ASSERT_TRUE(store.Put("shard0-s2", "beta").ok());
  auto got = store.Get("shard0-s1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie(), "alpha");

  // Overwrite is atomic replace, not append.
  ASSERT_TRUE(store.Put("shard0-s1", "alpha2").ok());
  EXPECT_EQ(store.Get("shard0-s1").ValueOrDie(), "alpha2");

  std::vector<std::string> tokens = store.ListTokens();
  EXPECT_EQ(tokens.size(), 2u);

  EXPECT_TRUE(store.Delete("shard0-s1"));
  EXPECT_FALSE(store.Delete("shard0-s1"));
  EXPECT_EQ(store.Get("shard0-s1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.ListTokens().size(), 1u);
}

TEST(SpillStoreTest, AbsentTokenIsNotFound) {
  SpillStore store(MakeScratchDir("absent"));
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(store.Get("never").status().code(), StatusCode::kNotFound);
}

TEST(SpillStoreTest, HostileTokensStayInsideTheDirectory) {
  std::string dir = MakeScratchDir("hostile");
  SpillStore store(dir);
  ASSERT_TRUE(store.Init().ok());

  const std::vector<std::string> tokens = {
      "../../etc/passwd", "a/b/c", "dot..dot", "sp ace", "pct%41", "",
      std::string("nul\0byte", 8), "unicode-\xC3\xA9"};
  for (const std::string& token : tokens) {
    ASSERT_TRUE(store.Put(token, "payload:" + token).ok());
  }
  // Everything lands as a direct child of the spill dir...
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().parent_path().string(), dir);
    ++files;
  }
  EXPECT_GE(files, tokens.size());
  // ...and round-trips back to the exact original token.
  std::vector<std::string> listed = store.ListTokens();
  EXPECT_EQ(listed.size(), tokens.size());
  for (const std::string& token : tokens) {
    auto got = store.Get(token);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.ValueOrDie(), "payload:" + token);
  }
}

TEST(SpillStoreTest, TokenEscapingRoundTrips) {
  const std::vector<std::string> tokens = {
      "plain-token_1", "../traversal", "a%b", "", "sp ace/slash",
      std::string("\x01\xFF", 2)};
  for (const std::string& token : tokens) {
    std::string escaped = EscapeSpillToken(token);
    EXPECT_EQ(escaped.find('/'), std::string::npos) << token;
    EXPECT_EQ(escaped.find(".."), std::string::npos) << token;
    auto back = UnescapeSpillToken(escaped);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie(), token);
  }
  // Malformed escapes are rejected, not misread.
  EXPECT_FALSE(UnescapeSpillToken("%").ok());
  EXPECT_FALSE(UnescapeSpillToken("%1").ok());
  EXPECT_FALSE(UnescapeSpillToken("%zz").ok());
}

TEST(SpillStoreTest, ManifestRoundTrip) {
  SpillStore store(MakeScratchDir("manifest"));
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(store.ReadManifest().status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.WriteManifest(4711).ok());
  auto read = store.ReadManifest();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie(), 4711u);
  // The manifest is not a session and must not leak into the token list.
  EXPECT_TRUE(store.ListTokens().empty());
}

TEST(SpillStoreTest, InitCreatesNestedDirectoriesAndSweepsTempFiles) {
  std::string base = MakeScratchDir("nested");
  std::string dir = base + "/a/b";
  {
    SpillStore store(dir);
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Put("tok", "v").ok());
  }
  // A torn temp file from a kill -9 mid-spill is swept by the next Init and
  // never surfaces as a token.
  std::ofstream(dir + "/leftover.tmp") << "torn";
  SpillStore reopened(dir);
  ASSERT_TRUE(reopened.Init().ok());
  std::vector<std::string> tokens = reopened.ListTokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "tok");
  EXPECT_EQ(reopened.Get("tok").ValueOrDie(), "v");
}

}  // namespace
}  // namespace bionav
