#include "eid/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "../test_util.h"
#include "relational/printer.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(MatcherTest, Example2ProducesTable3) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  EID_ASSERT_OK_AND_ASSIGN(
      MatcherResult result,
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         fixtures::Example2ExtendedKey(),
                         fixtures::Example2Ilfds()));
  EID_EXPECT_OK(result.uniqueness);
  ASSERT_EQ(result.matching.size(), 1u);
  // Table 3: (TwinCities, Indian) ↔ (TwinCities).
  TuplePair p = result.matching.pairs()[0];
  EXPECT_EQ(p.r_index, 1u);
  EXPECT_EQ(p.s_index, 0u);
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result.MatchingRelation());
  EXPECT_TRUE(mt.schema().Contains("R.name"));
  EXPECT_TRUE(mt.schema().Contains("R.cuisine"));
  EXPECT_TRUE(mt.schema().Contains("S.name"));
}

TEST(MatcherTest, Example3ProducesTable7) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  EID_ASSERT_OK_AND_ASSIGN(
      MatcherResult result,
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         fixtures::Example3ExtendedKey(),
                         fixtures::Example3Ilfds()));
  EID_EXPECT_OK(result.uniqueness);
  // Table 7: TwinCities/Chinese↔Hunan, It'sGreek, Anjuman. The Sichuan
  // tuple and VillageWok stay unmatched.
  ASSERT_EQ(result.matching.size(), 3u);
  EXPECT_EQ(result.matching.MatchOfR(0), 0u);  // TwinCities Chinese ↔ Hunan
  EXPECT_EQ(result.matching.MatchOfR(2), 2u);  // It'sGreek
  EXPECT_EQ(result.matching.MatchOfR(3), 3u);  // Anjuman
  EXPECT_FALSE(result.matching.HasR(1));       // TwinCities Indian
  EXPECT_FALSE(result.matching.HasR(4));       // VillageWok
  EXPECT_FALSE(result.matching.HasS(1));       // TwinCities Sichuan
}

TEST(MatcherTest, NullExtendedKeyValuesNeverMatch) {
  // Two tuples with NULL-derived extended key columns must not join on
  // NULL = NULL (non_null_eq semantics).
  Relation r = MakeRelation("R", {"name", "cuisine"}, {"name"},
                            {{"A", "Chinese"}});
  Relation s = MakeRelation("S", {"name", "speciality"}, {"name"},
                            {{"A", "Mystery"}});
  IlfdSet no_knowledge;
  EID_ASSERT_OK_AND_ASSIGN(
      MatcherResult result,
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         ExtendedKey({"name", "cuisine", "speciality"}),
                         no_knowledge));
  EXPECT_EQ(result.matching.size(), 0u);
}

TEST(MatcherTest, UniquenessViolationReportedNotFatalByDefault) {
  // Extended key {name} over relations where S has two same-name tuples
  // under a different key — one R tuple would match both.
  Relation r = MakeRelation("R", {"name", "street"}, {"name", "street"},
                            {{"Wok", "A"}});
  Relation s = MakeRelation("S", {"name", "city"}, {"name", "city"},
                            {{"Wok", "X"}, {"Wok", "Y"}});
  IlfdSet no_knowledge;
  EID_ASSERT_OK_AND_ASSIGN(
      MatcherResult result,
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         ExtendedKey({"name"}), no_knowledge));
  EXPECT_EQ(result.uniqueness.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(result.matching.size(), 1u);  // first pair kept, second skipped
}

TEST(MatcherTest, UniquenessViolationFatalWhenRequested) {
  Relation r = MakeRelation("R", {"name", "street"}, {"name", "street"},
                            {{"Wok", "A"}});
  Relation s = MakeRelation("S", {"name", "city"}, {"name", "city"},
                            {{"Wok", "X"}, {"Wok", "Y"}});
  IlfdSet no_knowledge;
  MatcherOptions opts;
  opts.fail_on_uniqueness_violation = true;
  Result<MatcherResult> result =
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         ExtendedKey({"name"}), no_knowledge, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
}

TEST(MatcherTest, EmptyExtendedKeyRejected) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IlfdSet no_knowledge;
  EXPECT_FALSE(
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         ExtendedKey(std::vector<std::string>{}), no_knowledge)
          .ok());
}

TEST(MatcherTest, UnknownExtendedKeyAttributeRejected) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IlfdSet no_knowledge;
  EXPECT_EQ(
      BuildMatchingTable(r, s, AttributeCorrespondence::Identity(r, s),
                         ExtendedKey({"name", "nonexistent"}), no_knowledge)
          .status()
          .code(),
      StatusCode::kNotFound);
}

TEST(MatcherTest, JoinOnExtendedKeyMatchesPairwiseReference) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  ExtendedKey key = fixtures::Example3ExtendedKey();
  IlfdSet ilfds = fixtures::Example3Ilfds();
  EID_ASSERT_OK_AND_ASSIGN(ExtensionResult rx,
                           ExtendRelation(r, Side::kR, corr, key, ilfds));
  EID_ASSERT_OK_AND_ASSIGN(ExtensionResult sx,
                           ExtendRelation(s, Side::kS, corr, key, ilfds));
  EID_ASSERT_OK_AND_ASSIGN(
      std::vector<TuplePair> pairs,
      JoinOnExtendedKey(rx.extended, sx.extended, key));
  // Pairwise reference with non_null_eq on every key attribute.
  std::vector<TuplePair> reference;
  for (size_t i = 0; i < rx.extended.size(); ++i) {
    for (size_t j = 0; j < sx.extended.size(); ++j) {
      bool all = true;
      for (const std::string& a : key.attributes()) {
        if (!NonNullEq(rx.extended.tuple(i).GetOrNull(a),
                       sx.extended.tuple(j).GetOrNull(a))) {
          all = false;
          break;
        }
      }
      if (all) reference.push_back(TuplePair{i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(pairs, reference);
}

/// A random extended relation over (city, name, num): 32 cities, few
/// enough names that keys repeat, about one NULL cell in six. `num`
/// holds Int values, or the equal-looking Double values when
/// `num_type` is kDouble — storage-distinct, so they must never join.
Relation RandomExtended(const std::string& name, ValueType num_type,
                        size_t rows, std::mt19937* rng) {
  Relation rel(name, Schema({Attribute{"city", ValueType::kString},
                             Attribute{"name", ValueType::kString},
                             Attribute{"num", num_type}}));
  auto cell = [&](Value v) { return (*rng)() % 6 == 0 ? Value::Null() : v; };
  for (size_t i = 0; i < rows; ++i) {
    const int num = static_cast<int>((*rng)() % 3);
    Row row{cell(Value::String("c" + std::to_string((*rng)() % 32))),
            cell(Value::String("n" + std::to_string((*rng)() % 40))),
            cell(num_type == ValueType::kInt ? Value::Int(num)
                                             : Value::Double(num))};
    EXPECT_TRUE(rel.Insert(std::move(row)).ok());
  }
  return rel;
}

/// The extended-key join by its definition: every (r, s) agreeing
/// non-NULL on every key attribute, r-major and s ascending.
std::vector<TuplePair> NestedLoopKeyJoin(const Relation& r, const Relation& s,
                                         const ExtendedKey& key) {
  std::vector<TuplePair> out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      bool all = true;
      for (const std::string& a : key.attributes()) {
        all = all && NonNullEq(r.tuple(i).GetOrNull(a), s.tuple(j).GetOrNull(a));
      }
      if (all) out.push_back(TuplePair{i, j});
    }
  }
  return out;
}

TEST(MatcherTest, IdKeyedJoinMatchesFingerprintOracle) {
  // The id-keyed join against the join's definition (which the
  // reference's string-fingerprint join computes): identical pairs in
  // identical order — r-major, s ascending — for widths 1, 2 and 3, NULL
  // key cells, Int(1) vs Double(1.0), a low-cardinality leading attribute
  // (city), in a world of its own and in a session world, at every pool
  // size.
  std::mt19937 rng(11);
  Relation r = RandomExtended("R'", ValueType::kInt, 400, &rng);
  for (ValueType s_num : {ValueType::kInt, ValueType::kDouble}) {
    Relation s = RandomExtended("S'", s_num, 300, &rng);
    for (const ExtendedKey& key :
         {ExtendedKey({"name"}), ExtendedKey({"city", "name"}),
          ExtendedKey({"name", "city"}), ExtendedKey({"num"}),
          ExtendedKey({"city", "name", "num"})}) {
      const std::string label =
          key.ToString() + (s_num == ValueType::kInt ? " int" : " double");
      const std::vector<TuplePair> oracle = NestedLoopKeyJoin(r, s, key);
      if (s_num == ValueType::kDouble && key.Contains("num")) {
        EXPECT_TRUE(oracle.empty()) << label;  // Int(1) != Double(1.0)
      } else {
        EXPECT_FALSE(oracle.empty()) << label;
      }
      EID_ASSERT_OK_AND_ASSIGN(std::vector<TuplePair> own_world,
                               JoinOnExtendedKey(r, s, key));
      EXPECT_EQ(own_world, oracle) << label;
      for (int threads : {1, 4}) {
        exec::ThreadPool pool(threads);
        exec::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        exec::ColumnarWorld world;
        EID_ASSERT_OK_AND_ASSIGN(
            std::vector<TuplePair> session_world,
            JoinOnExtendedKey(r, s, key, pool_ptr, nullptr, world));
        EXPECT_EQ(session_world, oracle) << label << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace eid
