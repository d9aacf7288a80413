#include "eid/negative.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(NegativeTest, PaperTable4FromProposition1Rule) {
  // Example 2 + Proposition 1: the Mughalai ILFD's induced rule certifies
  // that S's (TwinCities, Mughalai) is distinct from R's
  // (TwinCities, Chinese) — the NMT of Table 4.
  EID_ASSERT_OK_AND_ASSIGN(Ilfd ilfd,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  EID_ASSERT_OK_AND_ASSIGN(DistinctnessRule induced,
                           DistinctnessRuleFromIlfd(ilfd));
  // The induced rule reads e1.speciality; for the R,S pair it fires in the
  // flipped orientation (e1 := S tuple), which the builder tries too.
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {induced}));
  ASSERT_EQ(out.table.size(), 1u);
  EXPECT_EQ(out.table.pairs()[0], (TuplePair{0, 0}));
  std::optional<NegativePairEvidence> evidence =
      out.EvidenceFor(TuplePair{0, 0});
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(evidence->rule_index, 0u);
  EXPECT_TRUE(evidence->flipped);
  EXPECT_EQ(out.evidence, std::vector<uint32_t>{1u});  // rule 0, flipped
  EXPECT_FALSE(out.EvidenceFor(TuplePair{0, 1}).has_value());
}

TEST(NegativeTest, InvalidRuleFailsBuild) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s = MakeRelation("S", {"a"}, {}, {{"1"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule one_sided,
      ParseDistinctnessRule("bad", "e1.a = \"1\""));
  EXPECT_FALSE(BuildNegativeMatchingTable(r, s, {one_sided}).ok());
}

TEST(NegativeTest, MultiplePairsAndNoUniquenessConstraint) {
  // One R tuple may be distinct from many S tuples.
  Relation r = MakeRelation("R", {"cuisine"}, {}, {{"Greek"}});
  Relation s = MakeRelation("S", {"speciality"}, {},
                            {{"Mughalai"}, {"Mughalai2"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule(
          "r", "e2.speciality != \"nothing\" & e1.cuisine = \"Greek\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule}));
  EXPECT_EQ(out.table.size(), 2u);
}

TEST(NegativeTest, FirstRuleGetsCredit) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s = MakeRelation("S", {"b"}, {}, {{"2"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule1,
      ParseDistinctnessRule("r1", "e1.a = \"1\" & e2.b = \"2\""));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule2,
      ParseDistinctnessRule("r2", "e1.a != \"9\" & e2.b != \"9\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule1, rule2}));
  ASSERT_EQ(out.table.size(), 1u);
  ASSERT_EQ(out.evidence.size(), 1u);
  EXPECT_EQ(NegativePairEvidence::FromCertificate(out.evidence[0]).rule_index,
            0u);
}

TEST(NegativeTest, UnknownPredicatesDoNotCertify) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s("S", Schema::OfStrings({"b"}));
  EID_EXPECT_OK(s.Insert(Row{Value::Null()}));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule("r", "e1.a = \"1\" & e2.b != \"2\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule}));
  EXPECT_EQ(out.table.size(), 0u);  // NULL → unknown → no certificate
}

// The NMT adopt contract (DESIGN.md §4d): a strictly increasing list is
// taken by move with its per-side first indexes; anything else leaves
// table and list untouched, and FromPairs folds it through the checked
// batch path instead.
TEST(MatchTableTest, AdoptSortedTakesStrictlyIncreasingPairs) {
  std::vector<TuplePair> pairs = {{0, 1}, {0, 3}, {2, 0}, {2, 1}};
  MatchTable table(/*negative=*/true);
  ASSERT_TRUE(table.AdoptSorted(&pairs));
  EXPECT_TRUE(pairs.empty());
  ASSERT_EQ(table.size(), 4u);
  EXPECT_TRUE(table.Contains(TuplePair{2, 0}));
  EXPECT_FALSE(table.Contains(TuplePair{1, 0}));
  EXPECT_EQ(table.MatchOfR(2), std::optional<size_t>(0));
  EXPECT_EQ(table.MatchOfS(1), std::optional<size_t>(0));
  EXPECT_FALSE(table.HasR(1));
  EXPECT_FALSE(table.HasS(2));
}

TEST(MatchTableTest, AdoptSortedRejectsUnsortedOrDuplicatePairs) {
  for (std::vector<TuplePair> pairs :
       {std::vector<TuplePair>{{0, 1}, {0, 1}},
        std::vector<TuplePair>{{1, 0}, {0, 5}}}) {
    const std::vector<TuplePair> before = pairs;
    MatchTable table(/*negative=*/true);
    EXPECT_FALSE(table.AdoptSorted(&pairs));
    EXPECT_EQ(pairs, before);
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.HasR(0));
    EXPECT_FALSE(table.HasS(1));
  }
}

TEST(MatchTableTest, FromPairsFoldsUnsortedNegativeLists) {
  EID_ASSERT_OK_AND_ASSIGN(
      MatchTable table,
      MatchTable::FromPairs(/*negative=*/true,
                            {{3, 1}, {0, 2}, {3, 1}, {1, 1}, {0, 2}}));
  EXPECT_EQ(table.size(), 3u);  // duplicates skipped
  for (const TuplePair& p :
       {TuplePair{3, 1}, TuplePair{0, 2}, TuplePair{1, 1}}) {
    EXPECT_TRUE(table.Contains(p));
  }
  EXPECT_FALSE(table.Contains(TuplePair{1, 2}));
  EXPECT_EQ(table.MatchOfR(3), std::optional<size_t>(1));
}

}  // namespace
}  // namespace eid
