// End-to-end reproduction of every worked example in the paper, wired
// through the public API exactly as the bench harness runs them.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../test_util.h"
#include "eid.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

// ---------------------------------------------------------------------
// Example 1 / Table 1: the motivating ambiguity.
// ---------------------------------------------------------------------

TEST(Example1Test, CommonAttributeMatchingBecomesAmbiguous) {
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  // Matching on the common key *attribute* `name` alone: initially each
  // S tuple has at most one same-name R tuple...
  size_t ambiguous_before = 0;
  for (size_t j = 0; j < s.size(); ++j) {
    size_t hits = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.tuple(i).GetOrNull("name") == s.tuple(j).GetOrNull("name")) {
        ++hits;
      }
    }
    if (hits > 1) ++ambiguous_before;
  }
  EXPECT_EQ(ambiguous_before, 0u);
  // ...but inserting (VillageWok, Penn.Ave., Chinese) makes VillageWok
  // ambiguous: one S tuple, two R candidates.
  EID_EXPECT_OK(r.Insert(fixtures::Table1AmbiguousInsert()));
  size_t ambiguous_after = 0;
  for (size_t j = 0; j < s.size(); ++j) {
    size_t hits = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.tuple(i).GetOrNull("name") == s.tuple(j).GetOrNull("name")) {
        ++hits;
      }
    }
    if (hits > 1) ++ambiguous_after;
  }
  EXPECT_EQ(ambiguous_after, 1u);
}

TEST(Example1Test, KnowledgeResolvesTheAmbiguity) {
  // With the extended key {name, street, city} and Example 1's knowledge
  // ("Wash.Ave. is only in Mpls", "Hwang's restaurant is only on
  // Wash.Ave."), the first tuples match and the Penn.Ave. insertion causes
  // no problem.
  Relation r = fixtures::Table1R();
  EID_EXPECT_OK(r.Insert(fixtures::Table1AmbiguousInsert()));
  Relation s = fixtures::Table1S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example1ExtendedKey();
  config.ilfds = fixtures::Example1Ilfds();
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  EID_EXPECT_OK(result.uniqueness);
  // VillageWok/Wash.Ave. (row 0) ↔ VillageWok/Mpls (row 0): the only match
  // the knowledge certifies; Penn.Ave. (row 3) stays unmatched.
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{0, 0}));
  EXPECT_FALSE(result.matching.HasR(3));
}

// ---------------------------------------------------------------------
// Figure 1: entities vs tuples.
// ---------------------------------------------------------------------

TEST(Figure1Test, FourOfFiveEntitiesModeledAndTwoMatches) {
  fixtures::Figure1World world = fixtures::Figure1();
  // The integrated world is the entities R or S models: e4 is in neither.
  size_t modeled = 0;
  for (size_t e = 0; e < world.universe.size(); ++e) {
    const Row key = world.universe.PrimaryKeyOf(e);
    if (world.r.ContainsKey(key) || world.s.ContainsKey(key)) ++modeled;
  }
  EXPECT_EQ(world.universe.size(), 5u);
  EXPECT_EQ(modeled, 4u);
  // a2≡b3 and a3≡b4 (rows 1 and 2 on both sides), and nothing else.
  EXPECT_EQ(world.truth,
            (std::vector<std::pair<size_t, size_t>>{{1, 1}, {2, 2}}));
  const std::vector<TuplePair> diagram = {{1, 1}, {2, 2}};
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(world.r, world.s);
  config.extended_key = ExtendedKey({"name", "street"});
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           EntityIdentifier(config).Identify(world.r, world.s));
  EXPECT_TRUE(result.Sound());
  EXPECT_EQ(result.matching.pairs(), diagram);
}

// ---------------------------------------------------------------------
// Figure 2: soundness breakdown and the domain attribute.
// ---------------------------------------------------------------------

TEST(Figure2Test, AttributeEquivalenceIsUnsoundAcrossDomains) {
  Relation r = fixtures::Figure2R();
  Relation s = fixtures::Figure2S();
  // Attribute-value equivalence concludes r1 ≡ s1...
  {
    IdentifierConfig config;
    config.correspondence = AttributeCorrespondence::Identity(r, s);
    config.identity_rules.push_back(
        IdentityRule::KeyEquivalence("all-attrs", {"name", "cuisine"}));
    EntityIdentifier identifier(config);
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             identifier.Identify(r, s));
    EXPECT_EQ(result.matching.size(), 1u);
    // ...which violates soundness: the ground truth (Figure2Universe) has
    // two distinct entities. The extended key over the universe proves
    // (name, cuisine) is not even identifying.
    EXPECT_EQ(ExtendedKey({"name", "cuisine"})
                  .VerifyAgainstUniverse(fixtures::Figure2Universe())
                  .code(),
              StatusCode::kConstraintViolation);
  }
}

TEST(Figure2Test, DomainAttributeBlocksTheUnsoundMatch) {
  Relation r = fixtures::Figure2RWithDomain();
  Relation s = fixtures::Figure2SWithDomain();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.identity_rules.push_back(IdentityRule::KeyEquivalence(
      "all-attrs", {"name", "cuisine", "domain"}));
  // Domain knowledge: DB1 and DB2 model disjoint subsets here.
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule disjoint,
      ParseDistinctnessRule(
          "disjoint-domains", "e1.domain = \"DB1\" & e2.domain = \"DB2\""));
  config.distinctness_rules.push_back(disjoint);
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  EXPECT_EQ(result.matching.size(), 0u);
  EXPECT_EQ(result.negative.table.size(), 1u);
  EXPECT_TRUE(result.Sound());
}

// ---------------------------------------------------------------------
// Example 2 / Tables 2-4.
// ---------------------------------------------------------------------

TEST(Example2Test, Table3MatchingTable) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example2ExtendedKey();
  config.ilfds = fixtures::Example2Ilfds();
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result.MatchingRelation());
  // Table 3: one row — TwinCities | Indian | TwinCities.
  ASSERT_EQ(mt.size(), 1u);
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.name").AsString(), "TwinCities");
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.cuisine").AsString(), "Indian");
  EXPECT_EQ(mt.tuple(0).GetOrNull("S.name").AsString(), "TwinCities");
}

TEST(Example2Test, Table4NegativeMatchingTable) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example2ExtendedKey();
  config.ilfds = fixtures::Example2Ilfds();
  EntityIdentifier identifier(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           identifier.Identify(r, s));
  // Table 4: (TwinCities, Chinese) vs (TwinCities) is a certified
  // non-match via Proposition 1 on the Mughalai ILFD.
  EXPECT_TRUE(result.negative.table.Contains(TuplePair{0, 0}));
  EXPECT_EQ(result.Decide(0, 0), MatchDecision::kNonMatch);
  EXPECT_EQ(result.Decide(1, 0), MatchDecision::kMatch);
  EID_EXPECT_OK(result.consistency);
}

// ---------------------------------------------------------------------
// Example 3 / Tables 5-8 (+ §5's derived I9).
// ---------------------------------------------------------------------

class Example3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = fixtures::Example3R();
    s_ = fixtures::Example3S();
    config_.correspondence = AttributeCorrespondence::Identity(r_, s_);
    config_.extended_key = fixtures::Example3ExtendedKey();
    config_.ilfds = fixtures::Example3Ilfds();
    EntityIdentifier identifier(config_);
    Result<IdentificationResult> result = identifier.Identify(r_, s_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    result_ = std::move(result).value();
  }

  Relation r_, s_;
  IdentifierConfig config_;
  IdentificationResult result_;
};

TEST_F(Example3Test, Table6ExtendedRelations) {
  // R' speciality column.
  std::vector<std::string> r_spec = {"Hunan", "null", "Gyros", "Mughalai",
                                     "null"};
  for (size_t i = 0; i < r_spec.size(); ++i) {
    EXPECT_EQ(result_.r_extended.tuple(i).GetOrNull("speciality").ToString(),
              r_spec[i]);
  }
  // S' cuisine column.
  std::vector<std::string> s_cui = {"Chinese", "Chinese", "Greek", "Indian"};
  for (size_t i = 0; i < s_cui.size(); ++i) {
    EXPECT_EQ(result_.s_extended.tuple(i).GetOrNull("cuisine").ToString(),
              s_cui[i]);
  }
}

TEST_F(Example3Test, Table7MatchingTable) {
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result_.MatchingRelation());
  mt.SortRows();
  ASSERT_EQ(mt.size(), 3u);
  // Sorted rows: Anjuman, It'sGreek, TwinCities.
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.name").AsString(), "Anjuman");
  EXPECT_EQ(mt.tuple(1).GetOrNull("R.name").AsString(), "It'sGreek");
  EXPECT_EQ(mt.tuple(2).GetOrNull("R.name").AsString(), "TwinCities");
  EXPECT_EQ(mt.tuple(2).GetOrNull("R.cuisine").AsString(), "Chinese");
  EXPECT_EQ(mt.tuple(2).GetOrNull("S.speciality").AsString(), "Hunan");
}

TEST_F(Example3Test, DerivedI9IsImpliedAndProvable) {
  Ilfd i9 = fixtures::Example3DerivedI9();
  EXPECT_TRUE(config_.ilfds.Implies(i9));
  EID_ASSERT_OK_AND_ASSIGN(Proof proof, config_.ilfds.Prove(i9));
  AtomTable scratch = config_.ilfds.atoms();
  Implication target = config_.ilfds.ToImplication(i9, &scratch);
  EID_EXPECT_OK(VerifyProof(config_.ilfds.kb(), proof, target));
}

TEST_F(Example3Test, SoundnessVerdictsHold) {
  EXPECT_TRUE(result_.Sound());
  EID_EXPECT_OK(result_.uniqueness);
  EID_EXPECT_OK(result_.consistency);
}

TEST_F(Example3Test, IntegratedTableMatchesPrototypeShape) {
  EID_ASSERT_OK_AND_ASSIGN(Relation t, BuildIntegratedTable(result_));
  EXPECT_EQ(t.size(), 6u);
}

}  // namespace
}  // namespace eid
