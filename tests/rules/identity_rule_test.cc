#include "rules/identity_rule.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(IdentityRuleTest, PaperR1IsValid) {
  // r1: (e1.cuisine="Chinese") ∧ (e2.cuisine="Chinese") → e1 ≡ e2.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule r1,
      ParseIdentityRule(
          "r1", "e1.cuisine = \"Chinese\" & e2.cuisine = \"Chinese\""));
  EID_EXPECT_OK(r1.Validate());
}

TEST(IdentityRuleTest, PaperR2IsInvalid) {
  // r2: (e1.cuisine="Chinese") → e1 ≡ e2 — does not imply
  // e2.cuisine = e1.cuisine.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule r2, ParseIdentityRule("r2", "e1.cuisine = \"Chinese\""));
  Status st = r2.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("e2.cuisine"), std::string::npos);
}

TEST(IdentityRuleTest, KeyEquivalenceFactoryValidates) {
  IdentityRule rule =
      IdentityRule::KeyEquivalence("ext", {"name", "cuisine", "speciality"});
  EID_EXPECT_OK(rule.Validate());
  EXPECT_EQ(rule.predicates().size(), 3u);
}

TEST(IdentityRuleTest, TransitiveEqualityThroughSharedConstant) {
  // e1.a = "X" and e2.a = "X" forces e1.a = e2.a transitively.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("t", "e1.a = \"X\" & e2.a = \"X\""));
  EID_EXPECT_OK(rule.Validate());
}

TEST(IdentityRuleTest, TransitiveEqualityThroughAttributeChain) {
  // e1.a = e1.b & e1.b = e2.a & e2.a = e2.b — forces a and b equal across.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("chain",
                        "e1.a = e1.b & e1.b = e2.a & e2.a = e2.b"));
  EID_EXPECT_OK(rule.Validate());
}

TEST(IdentityRuleTest, InequalityPredicatesDoNotEstablishEquality) {
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("bad", "e1.n <= e2.n & e2.n <= e1.n"));
  // Semantically this implies equality, but the syntactic congruence
  // check (deliberately conservative) rejects it.
  EXPECT_FALSE(rule.Validate().ok());
}

TEST(IdentityRuleTest, UnsatisfiableAntecedentIsVacuouslyValid) {
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("vac", "e1.a = \"X\" & e1.a = \"Y\" & e2.b = \"Z\""));
  EXPECT_TRUE(rule.IsVacuous());
  EID_EXPECT_OK(rule.Validate());
}

TEST(IdentityRuleTest, DoublesThatPrintAlikeAreDistinctConstants) {
  // 0.1 and 0.1000001 print alike at 6 significant digits but are
  // storage-distinct, so pinning e1.x and e2.x to them forces no equality
  // between the two: the rule fires on (0.1, 0.1000001) and not on its
  // flip, which §3.2 forbids.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule near,
      ParseIdentityRule("near", "e1.x = 0.1 & e2.x = 0.1000001"));
  Status st = near.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("e2.x"), std::string::npos);
  EXPECT_FALSE(near.IsVacuous());
  // The same double on both sides still forces it.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule same, ParseIdentityRule("same", "e1.x = 0.1 & e2.x = 0.1"));
  EID_EXPECT_OK(same.Validate());
}

TEST(IdentityRuleTest, DoublesThatPrintAlikeForcedEqualAreVacuous) {
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("vac",
                        "e1.x = 0.1 & e1.x = 0.1000001 & e2.x = e1.x"));
  EXPECT_TRUE(rule.IsVacuous());
  EID_EXPECT_OK(rule.Validate());
  // Int 1 and Double 1.0 are storage-distinct too.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule mixed,
      ParseIdentityRule("mixed", "e1.x = 1 & e1.x = 1.0 & e2.x = e1.x"));
  EXPECT_TRUE(mixed.IsVacuous());
}

TEST(IdentityRuleTest, EmptyRuleInvalid) {
  IdentityRule rule("empty", {});
  EXPECT_FALSE(rule.Validate().ok());
}

TEST(IdentityRuleTest, MatchesEvaluatesThreeValued) {
  IdentityRule rule = IdentityRule::KeyEquivalence("k", {"name", "cuisine"});
  Relation r = MakeRelation("R", {"name", "cuisine"}, {},
                            {{"Wok", "Chinese"}});
  Relation s = MakeRelation("S", {"name", "cuisine"}, {},
                            {{"Wok", "Chinese"}, {"Wok", "Greek"}});
  Relation s_null("S2", Schema::OfStrings({"name", "cuisine"}));
  EID_EXPECT_OK(s_null.Insert(Row{Value::Str("Wok"), Value::Null()}));

  EXPECT_EQ(rule.Matches(r.tuple(0), s.tuple(0)), Truth::kTrue);
  EXPECT_EQ(rule.Matches(r.tuple(0), s.tuple(1)), Truth::kFalse);
  EXPECT_EQ(rule.Matches(r.tuple(0), s_null.tuple(0)), Truth::kUnknown);
}

TEST(IdentityRuleTest, ReferencedAttributesSortedUnique) {
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("t", "e1.b = e2.b & e1.a = e2.a & e1.b = e2.b"));
  EXPECT_EQ(rule.ReferencedAttributes(),
            (std::vector<std::string>{"a", "b"}));
}

TEST(IdentityRuleParserTest, OperatorsAndConstants) {
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule rule,
      ParseIdentityRule("ops", "e1.n >= 3 & e2.x != \"a b\" & e1.d = 2.5"));
  ASSERT_EQ(rule.predicates().size(), 3u);
  EXPECT_EQ(rule.predicates()[0].op, CompareOp::kGe);
  EXPECT_EQ(rule.predicates()[0].rhs.constant.AsInt(), 3);
  EXPECT_EQ(rule.predicates()[1].op, CompareOp::kNe);
  EXPECT_EQ(rule.predicates()[1].rhs.constant.AsString(), "a b");
  EXPECT_EQ(rule.predicates()[2].rhs.constant.AsDouble(), 2.5);
}

TEST(IdentityRuleParserTest, Errors) {
  EXPECT_FALSE(ParseIdentityRule("x", "").ok());
  EXPECT_FALSE(ParseIdentityRule("x", "e1.a e2.a").ok());
  EXPECT_FALSE(ParseIdentityRule("x", "e1.a = e2.a &").ok());
}

TEST(IdentityRuleTest, ToStringShowsImplication) {
  IdentityRule rule = IdentityRule::KeyEquivalence("k", {"name"});
  EXPECT_EQ(rule.ToString(), "(e1.name = e2.name) -> e1 == e2");
}

}  // namespace
}  // namespace eid
