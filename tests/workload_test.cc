#include "workload/workload.h"

#include <set>

#include <gtest/gtest.h>

#include "workload/table_format.h"

namespace bionav {
namespace {

// A single down-scaled workload shared by all tests in this file
// (construction is the expensive part).
const Workload& SmallWorkload() {
  static const Workload* w = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 4000;
    options.background_citations = 3000;
    options.result_scale = 0.25;
    return new Workload(options);
  }();
  return *w;
}

TEST(Workload, HasTenPaperQueries) {
  const Workload& w = SmallWorkload();
  ASSERT_EQ(w.num_queries(), 10u);
  std::set<std::string> names;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    names.insert(w.query(i).spec.name);
  }
  EXPECT_TRUE(names.count("prothymosin"));
  EXPECT_TRUE(names.count("ice nucleation"));
  EXPECT_TRUE(names.count("vardenafil"));
  EXPECT_TRUE(names.count("follistatin"));
}

TEST(Workload, SpecsMatchPaperCharacteristics) {
  std::vector<QuerySpec> specs = PaperQuerySpecs(1.0);
  ASSERT_EQ(specs.size(), 10u);
  // Paper-reported result sizes for the two queries discussed in the text.
  auto find = [&](const std::string& name) -> const QuerySpec& {
    for (const QuerySpec& s : specs) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << name << " missing";
    return specs[0];
  };
  EXPECT_EQ(find("prothymosin").result_size, 313);
  EXPECT_EQ(find("vardenafil").result_size, 486);
  // The outlier query has a high-level, globally-heavy target.
  const QuerySpec& ice = find("ice nucleation");
  EXPECT_LE(ice.target_depth, 2);
  EXPECT_GT(ice.target_global_extra, 0);
  // Result sizes span the paper's range.
  int lo = specs[0].result_size, hi = specs[0].result_size;
  for (const QuerySpec& s : specs) {
    lo = std::min(lo, s.result_size);
    hi = std::max(hi, s.result_size);
  }
  EXPECT_LE(lo, 150);
  EXPECT_GE(hi, 480);
}

TEST(Workload, ResultScaleAppliesToSizes) {
  std::vector<QuerySpec> half = PaperQuerySpecs(0.5);
  std::vector<QuerySpec> full = PaperQuerySpecs(1.0);
  for (size_t i = 0; i < half.size(); ++i) {
    EXPECT_NEAR(half[i].result_size, full[i].result_size / 2, 1.0);
  }
}

TEST(Workload, TargetsRenamedToPaperLabels) {
  const Workload& w = SmallWorkload();
  std::vector<std::string> labels = PaperTargetLabels();
  ASSERT_EQ(labels.size(), w.num_queries());
  for (size_t i = 0; i < w.num_queries(); ++i) {
    EXPECT_EQ(w.hierarchy().label(w.query(i).target), labels[i]);
  }
}

TEST(Workload, BuildNavigationTreeMatchesResult) {
  const Workload& w = SmallWorkload();
  for (size_t i = 0; i < w.num_queries(); ++i) {
    auto nav = w.BuildNavigationTree(i);
    EXPECT_EQ(nav->result().size(), w.query(i).result.size());
    EXPECT_GT(nav->size(), 1u);
    // Target concept is in the tree.
    EXPECT_NE(nav->NodeOfConcept(w.query(i).target), kInvalidNavNode);
  }
}

TEST(Workload, IceNucleationTargetIsUnselective) {
  const Workload& w = SmallWorkload();
  // |LT| of the ice-nucleation target dwarfs its |L| — the property
  // driving the paper's worst-case behaviour.
  for (size_t i = 0; i < w.num_queries(); ++i) {
    if (w.query(i).spec.name != "ice nucleation") continue;
    ConceptId t = w.query(i).target;
    int64_t global = w.corpus().associations.GlobalCount(t);
    auto nav = w.BuildNavigationTree(i);
    int local = nav->attached_count(nav->NodeOfConcept(t));
    EXPECT_GT(global, 50 * static_cast<int64_t>(local));
    return;
  }
  FAIL() << "ice nucleation missing";
}

TEST(TextTable, AlignsColumnsAndCounts) {
  TextTable t;
  t.SetHeader({"A", "LongHeader"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2"});
  std::string s = t.ToString();
  // Header, separator, two rows.
  int lines = 0;
  for (char c : s) lines += c == '\n';
  EXPECT_EQ(lines, 4);
  EXPECT_NE(s.find("LongHeader"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
  EXPECT_EQ(TextTable::Num(-1.5, 1), "-1.5");
}

TEST(TextTableDeath, RowMustMatchHeaderWidth) {
  TextTable t;
  t.SetHeader({"A", "B"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "Check failed");
}

}  // namespace
}  // namespace bionav
