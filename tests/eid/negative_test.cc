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

}  // namespace
}  // namespace eid
