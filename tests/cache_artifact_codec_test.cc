// Tests for the QueryArtifacts wire codec (the FETCH_ARTIFACT payload):
// round-trip fidelity of result set, tree structure and cost model;
// a complete tree on arrival; and hostile-input hardening — every truncation
// prefix, CRC corruption, bad magic and unknown versions must come back
// as typed errors, never crashes — including mutated payloads (byte flips,
// inserts, deletes, cross-record splices, rewritten counts and fields)
// re-sealed with a valid length and CRC, so the structural checks are what
// reject.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bionav.h"
#include "persist/session_snapshot.h"
#include "test_support.h"
#include "util/rng.h"

namespace bionav {
namespace {

using ::bionav::testing::MatchesStructuralOracles;
using ::bionav::testing::RandomInstance;

const Workload& CodecWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

std::shared_ptr<const QueryArtifacts> BuildBundle(int query_index = 0) {
  const Workload& w = CodecWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  return BuildQueryArtifacts(w.hierarchy(), eutils,
                             w.query(query_index).spec.keyword,
                             CostModelParams());
}

TEST(ArtifactCodecTest, RoundTripPreservesEverySurface) {
  auto original = BuildBundle();
  ASSERT_NE(original, nullptr);
  std::string record = original->Serialize();
  ASSERT_GT(record.size(), 12u);  // magic + length + crc at minimum

  auto decoded =
      QueryArtifacts::Deserialize(CodecWorkload().hierarchy(), record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const QueryArtifacts& got = *decoded.ValueOrDie();

  EXPECT_EQ(got.key, original->key);

  // Result set: same citations in the same first-occurrence order.
  ASSERT_EQ(got.result->size(), original->result->size());
  EXPECT_EQ(got.result->citations(), original->result->citations());

  // Tree: structurally identical node by node, and complete on arrival so
  // the receiving shard can publish it to its cache without mutation.
  EXPECT_TRUE(MatchesStructuralOracles(*got.nav));
  ASSERT_EQ(got.nav->size(), original->nav->size());
  for (size_t i = 0; i < original->nav->size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    EXPECT_EQ(got.nav->concept_of(id), original->nav->concept_of(id));
    EXPECT_EQ(got.nav->parent(id), original->nav->parent(id));
    EXPECT_EQ(got.nav->attached_count(id), original->nav->attached_count(id));
    EXPECT_EQ(got.nav->global_count(id), original->nav->global_count(id));
    EXPECT_EQ(got.nav->results(id), original->nav->results(id));
  }

  // Cost model: parameters round-trip and the re-derived weights agree
  // on every node — a replica must cost EXPANDs exactly like the owner.
  EXPECT_EQ(got.cost_model->params().expand_cost,
            original->cost_model->params().expand_cost);
  EXPECT_EQ(got.cost_model->params().expand_upper_threshold,
            original->cost_model->params().expand_upper_threshold);
  EXPECT_DOUBLE_EQ(got.cost_model->normalization(),
                   original->cost_model->normalization());
  for (size_t i = 0; i < original->nav->size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    EXPECT_DOUBLE_EQ(got.cost_model->NodeExploreWeight(id),
                     original->cost_model->NodeExploreWeight(id));
  }
}

TEST(ArtifactCodecTest, SerializeIsDeterministic) {
  auto bundle = BuildBundle();
  EXPECT_EQ(bundle->Serialize(), bundle->Serialize());
  // A re-serialized decode is byte-identical: decode is lossless.
  auto decoded = QueryArtifacts::Deserialize(CodecWorkload().hierarchy(),
                                             bundle->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie()->Serialize(), bundle->Serialize());
}

TEST(ArtifactCodecTest, EveryTruncationPrefixIsATypedError) {
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  for (size_t len = 0; len < record.size(); ++len) {
    auto decoded = QueryArtifacts::Deserialize(
        h, std::string_view(record.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(ArtifactCodecTest, CorruptionAnywhereIsCaught) {
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  // Flip one bit in a sweep of positions across the record (header,
  // payload, trailing bytes). The CRC — or a structural check — must
  // reject every one; none may crash or round-trip silently.
  size_t step = record.size() / 64 + 1;
  for (size_t pos = 0; pos < record.size(); pos += step) {
    std::string bad = record;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    auto decoded = QueryArtifacts::Deserialize(h, bad);
    if (decoded.ok()) {
      // The only acceptable parse of tampered bytes is one that decodes
      // to the exact same bundle (a flip in ignored padding would).
      EXPECT_EQ(decoded.ValueOrDie()->Serialize(), record)
          << "byte " << pos << " flip parsed to a different bundle";
    }
  }
}

TEST(ArtifactCodecTest, BadMagicAndGarbageAreDataLoss) {
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  record[0] = 'X';
  auto decoded = QueryArtifacts::Deserialize(h, record);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  std::string garbage(256, '\x5a');
  auto junk = QueryArtifacts::Deserialize(h, garbage);
  EXPECT_FALSE(junk.ok());
}

TEST(ArtifactCodecTest, Base64RoundTripMatchesWireTransport) {
  // The wire carries the record base64-encoded (both JSON and binary
  // protos); the strict decoder must hand back the exact bytes.
  auto bundle = BuildBundle(1);
  std::string record = bundle->Serialize();
  std::string encoded = Base64Encode(record);
  std::string back;
  ASSERT_TRUE(Base64Decode(encoded, &back));
  EXPECT_EQ(back, record);
  auto decoded = QueryArtifacts::Deserialize(CodecWorkload().hierarchy(), back);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie()->key, bundle->key);
}

/// Frames `payload` as a BNA1 record with a matching length and CRC-32, so
/// a mutated payload gets past the checksum to the structural checks.
std::string Reseal(std::string_view payload) {
  return SealRecord(kArtifactMagic, payload);
}

/// Offsets of the rewritable varint fields of a canonical payload: the
/// cost-model thresholds and weight mode, the citation and node counts,
/// and every node's concept, parent and result-index count.
std::vector<size_t> FieldOffsets(std::string_view payload) {
  std::vector<size_t> offsets;
  size_t pos = 0;
  uint64_t v = 0;
  auto skip = [&](uint64_t n) {
    for (; n > 0; --n) BIONAV_CHECK(ReadVarint(payload, &pos, &v));
  };
  auto field = [&] {
    offsets.push_back(pos);
    skip(1);
  };
  // Version and key length, then the key bytes.
  skip(2);
  pos += static_cast<size_t>(v);
  // build_us and three f64 costs.
  skip(1);
  pos += 3 * 8;
  field();
  field();
  field();
  field();
  skip(v);
  field();
  for (uint64_t node = v; node > 0; --node) {
    field();
    field();
    skip(1);
    field();
    skip(v);
  }
  BIONAV_CHECK_EQ(pos, payload.size());
  return offsets;
}

TEST(ArtifactCodecTest, ResealedMutationFuzzRejectsOrRoundTrips) {
  // Records of several RandomInstance-sized bundles, each decoded against
  // its own hierarchy.
  std::vector<std::unique_ptr<RandomInstance>> instances;
  std::vector<std::string> payloads;
  std::vector<std::vector<size_t>> fields;
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    instances.push_back(std::make_unique<RandomInstance>(seed, 400, 50));
    std::string record = instances.back()->MakeBundle()->Serialize();
    payloads.push_back(record.substr(kSealedRecordHeaderBytes));
    fields.push_back(FieldOffsets(payloads.back()));
  }

  Rng rng(0xB1A1F022);
  // Byte 0 (the one-byte format version) is never touched: an unknown
  // version is kInvalidArgument by design and has its own test.
  auto pick = [&](const std::string& p) {
    return p.size() <= 1 ? size_t{1} : 1 + rng.Uniform(p.size() - 1);
  };
  auto mutate = [&](std::string* p) {
    switch (rng.Uniform(4)) {
      case 0: {  // bit flip
        size_t pos = pick(*p);
        if (pos < p->size()) {
          (*p)[pos] = static_cast<char>((*p)[pos] ^ (1 << rng.Uniform(8)));
        }
        break;
      }
      case 1:  // insert a byte
        p->insert(std::min(pick(*p), p->size()), 1,
                  static_cast<char>(rng.Uniform(256)));
        break;
      case 2:  // delete a short run
        if (p->size() > 1) p->erase(pick(*p), 1 + rng.Uniform(4));
        break;
      default: {  // overwrite a run with a run of another record
        const std::string& other = payloads[rng.Uniform(payloads.size())];
        size_t from = rng.Uniform(other.size());
        size_t len = 1 + rng.Uniform(std::min<size_t>(32, other.size() - from));
        size_t at = std::min(pick(*p), p->size());
        size_t cut = std::min<size_t>(rng.Uniform(33), p->size() - at);
        p->replace(at, cut, other, from, len);
        break;
      }
    }
  };

  constexpr int kIterations = 40000;
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    size_t which = rng.Uniform(payloads.size());
    std::string payload = payloads[which];
    const bool rewrite_field = rng.Bernoulli(0.4);
    if (rewrite_field) {
      const std::vector<size_t>& offsets = fields[which];
      size_t at = offsets[rng.Uniform(offsets.size())];
      size_t end = at;
      uint64_t old = 0;
      BIONAV_CHECK(ReadVarint(payload, &end, &old));
      uint64_t next = 0;
      switch (rng.Uniform(3)) {
        case 0: next = old + 1 + rng.Uniform(3); break;
        case 1: next = old > 0 ? old - 1 : 0; break;
        default: next = uint64_t{1} << (8 + rng.Uniform(50)); break;
      }
      std::string encoded;
      AppendVarint(&encoded, next);
      payload.replace(at, end - at, encoded);
    }
    // Every case mutates at least once.
    for (uint64_t m = rng.Uniform(3) + (rewrite_field ? 0 : 1); m > 0; --m) {
      mutate(&payload);
    }

    const std::string record = Reseal(payload);
    auto decoded =
        QueryArtifacts::Deserialize(instances[which]->hierarchy, record);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "iteration " << iter << ": " << decoded.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(decoded.ValueOrDie()->Serialize(), record)
        << "iteration " << iter << " decoded to a different bundle";
    ASSERT_TRUE(MatchesStructuralOracles(*decoded.ValueOrDie()->nav))
        << "iteration " << iter;
  }
  // Both outcomes occur, so the sweep reaches past the CRC.
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace bionav
