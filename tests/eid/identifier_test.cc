#include "eid/identifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

IdentifierConfig Example3Config() {
  IdentifierConfig config;
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  return config;
}

TEST(IdentifierTest, Example3EndToEnd) {
  EntityIdentifier identifier(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  EXPECT_TRUE(result.Sound());
  EXPECT_EQ(result.matching.size(), 3u);
  EXPECT_EQ(result.partition.total, 20u);
  EXPECT_EQ(result.partition.matched, 3u);
  EXPECT_GT(result.partition.non_matched, 0u);
  EXPECT_EQ(result.partition.matched + result.partition.non_matched +
                result.partition.undetermined,
            result.partition.total);
}

TEST(IdentifierTest, DecisionsAreThreeValued) {
  EntityIdentifier identifier(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  EXPECT_EQ(result.Decide(0, 0), MatchDecision::kMatch);
  // R's TwinCities-Chinese (speciality Hunan) vs S's Sichuan tuple:
  // distinct via the Prop-1 rule of I2 (Sichuan→Chinese? no —
  // via I1: e2 has speciality Hunan? evaluate: the flipped I1 rule uses
  // S-tuple speciality=Sichuan -> cuisine must be Chinese; R cuisine IS
  // Chinese, so not that one. I5's induced rule: e1.name=TwinCities &
  // e1.street=Co.B2 & e2.speciality != Hunan -> distinct. Fires directly.
  EXPECT_EQ(result.Decide(0, 1), MatchDecision::kNonMatch);
  // VillageWok has no knowledge at all against ExpressCafe-like tuples.
  EXPECT_EQ(result.Decide(4, 3), MatchDecision::kNonMatch);  // I6 induced
}

// A row at or beyond the relations is in neither table, however far out
// it lies, including rows no TuplePair can hold.
TEST(IdentifierTest, DecideBeyondTheRelationsIsUndetermined) {
  EntityIdentifier identifier(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  const size_t r_n = result.r_extended.size();
  const size_t s_n = result.s_extended.size();
  for (const auto& [r, s] : std::vector<std::pair<size_t, size_t>>{
           {r_n, 0},
           {0, s_n},
           {size_t{1} << 32, 0},
           {0, size_t{1} << 32},
           {SIZE_MAX, SIZE_MAX}}) {
    EXPECT_EQ(result.Decide(r, s), MatchDecision::kUndetermined)
        << "(" << r << ", " << s << ")";
  }
  EXPECT_EQ(result.Decide(0, 0), MatchDecision::kMatch);
}

TEST(IdentifierTest, WithoutIlfdsEverythingUndetermined) {
  IdentifierConfig config = Example3Config();
  config.ilfds = IlfdSet();
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  // S lacks cuisine entirely; no tuple can complete the extended key.
  EXPECT_EQ(result.matching.size(), 0u);
  EXPECT_EQ(result.negative.table.size(), 0u);
  EXPECT_EQ(result.partition.undetermined, result.partition.total);
}

TEST(IdentifierTest, ExplicitIdentityRulesMatchWithoutExtendedKey) {
  Relation r = MakeRelation("R", {"name", "cuisine"}, {"name"},
                            {{"Wok", "Chinese"}});
  Relation s = MakeRelation("S", {"name", "cuisine"}, {"name"},
                            {{"Wok", "Chinese"}, {"Ching", "Chinese"}});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.identity_rules.push_back(
      IdentityRule::KeyEquivalence("nc", {"name", "cuisine"}));
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{0, 0}));
}

TEST(IdentifierTest, InvalidIdentityRuleRejected) {
  Relation r = MakeRelation("R", {"cuisine"}, {}, {{"Chinese"}});
  Relation s = MakeRelation("S", {"cuisine"}, {}, {{"Chinese"}});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  Result<IdentityRule> bad = ParseIdentityRule("r2", "e1.cuisine = \"Chinese\"");
  ASSERT_TRUE(bad.ok());
  config.identity_rules.push_back(std::move(bad).value());
  EntityIdentifier identifier(config);
  EXPECT_FALSE(identifier.Identify(r, s).ok());
}

TEST(IdentifierTest, ConsistencyViolationDetected) {
  // An identity rule and a distinctness rule that contradict each other on
  // the same pair must trip the consistency constraint.
  Relation r = MakeRelation("R", {"name"}, {"name"}, {{"Wok"}});
  Relation s = MakeRelation("S", {"name"}, {"name"}, {{"Wok"}});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.identity_rules.push_back(IdentityRule::KeyEquivalence("n", {"name"}));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule contradiction,
      ParseDistinctnessRule("d", "e1.name = \"Wok\" & e2.name = \"Wok\""));
  config.distinctness_rules.push_back(contradiction);
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  EXPECT_FALSE(result.Sound());
  EXPECT_EQ(result.consistency.code(), StatusCode::kConstraintViolation);
}

TEST(IdentifierTest, DistinctnessFromIlfdsToggle) {
  IdentifierConfig config = Example3Config();
  config.distinctness_from_ilfds = false;
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult off,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  EXPECT_EQ(off.negative.table.size(), 0u);

  config.distinctness_from_ilfds = true;
  EntityIdentifier identifier_on(config);
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult on,
      identifier_on.Identify(fixtures::Example3R(), fixtures::Example3S()));
  EXPECT_GT(on.negative.table.size(), 0u);
  // Matching is unaffected by distinctness knowledge.
  EXPECT_EQ(on.matching.size(), off.matching.size());
}

TEST(IdentifierTest, MatchedPairsNeverContradictGroundTruthInExample3) {
  // Soundness on the worked example: every matched pair agrees on every
  // non-NULL extended-key attribute of the extended tuples.
  EntityIdentifier identifier(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  ExtendedKey key = fixtures::Example3ExtendedKey();
  for (const TuplePair& p : result.matching.pairs()) {
    for (const std::string& a : key.attributes()) {
      Value rv = result.r_extended.tuple(p.r_index).GetOrNull(a);
      Value sv = result.s_extended.tuple(p.s_index).GetOrNull(a);
      EXPECT_TRUE(NonNullEq(rv, sv)) << a;
    }
  }
}

TEST(IdentifierTest, MatchingRelationAndNegativeRelationPrintable) {
  EntityIdentifier identifier(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      identifier.Identify(fixtures::Example3R(), fixtures::Example3S()));
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result.MatchingRelation());
  EXPECT_EQ(mt.size(), result.matching.size());
  EID_ASSERT_OK_AND_ASSIGN(Relation nmt, result.NegativeRelation());
  EXPECT_EQ(nmt.size(), result.negative.table.size());
}

}  // namespace
}  // namespace eid
