#include "eid/explain.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eid/reference.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

struct Example3Setup {
  IdentifierConfig config;
  IdentificationResult result;
};

Example3Setup RunExample3() {
  Example3Setup setup;
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  setup.config.correspondence = AttributeCorrespondence::Identity(r, s);
  setup.config.extended_key = fixtures::Example3ExtendedKey();
  setup.config.ilfds = fixtures::Example3Ilfds();
  EntityIdentifier identifier(setup.config);
  Result<IdentificationResult> result = identifier.Identify(r, s);
  EXPECT_TRUE(result.ok());
  setup.result = std::move(result).value();
  return setup;
}

TEST(ExplainTest, MatchCitesDerivationChain) {
  Example3Setup setup = RunExample3();
  // R2 (It'sGreek) ↔ S2: speciality derived through I7 then I8.
  EID_ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainDecision(setup.result, setup.config, 2, 2));
  EXPECT_NE(text.find("decision: match"), std::string::npos);
  EXPECT_NE(text.find("extended key"), std::string::npos);
  EXPECT_NE(text.find("I7"), std::string::npos);
  EXPECT_NE(text.find("I8"), std::string::npos);
  EXPECT_NE(text.find("Gyros"), std::string::npos);
  EXPECT_NE(text.find("intermediate"), std::string::npos);  // county
}

TEST(ExplainTest, MatchWithDirectKeyHasNoSteps) {
  // Example 2-style: both sides carry the key after one derivation on S.
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example2ExtendedKey();
  config.ilfds = fixtures::Example2Ilfds();
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           EntityIdentifier(config).Identify(r, s));
  EID_ASSERT_OK_AND_ASSIGN(std::string text,
                           ExplainDecision(result, config, 1, 0));
  EXPECT_NE(text.find("decision: match"), std::string::npos);
  EXPECT_NE(text.find("I1"), std::string::npos);  // Mughalai -> Indian
}

TEST(ExplainTest, NonMatchCitesProposition1Rule) {
  Example3Setup setup = RunExample3();
  // R0 (TwinCities Chinese / Hunan) vs S1 (Sichuan) is certified distinct.
  ASSERT_EQ(setup.result.Decide(0, 1), MatchDecision::kNonMatch);
  EID_ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainDecision(setup.result, setup.config, 0, 1));
  EXPECT_NE(text.find("decision: non-match"), std::string::npos);
  EXPECT_NE(text.find("Proposition-1 rule"), std::string::npos);
  EXPECT_NE(text.find("orientation"), std::string::npos);
}

TEST(ExplainTest, NonMatchCitesExplicitRuleByName) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.distinctness_from_ilfds = false;
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule r3,
      ParseDistinctnessRule(
          "r3", "e2.speciality = \"Mughalai\" & e1.cuisine != \"Indian\""));
  config.distinctness_rules.push_back(r3);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           EntityIdentifier(config).Identify(r, s));
  ASSERT_EQ(result.Decide(0, 0), MatchDecision::kNonMatch);
  EID_ASSERT_OK_AND_ASSIGN(std::string text,
                           ExplainDecision(result, config, 0, 0));
  EXPECT_NE(text.find("rule 'r3'"), std::string::npos);
}

TEST(ExplainTest, UndeterminedNamesTheMissingKnowledge) {
  Example3Setup setup = RunExample3();
  // R4 (VillageWok) vs S1 (Sichuan): R4's speciality is underivable.
  ASSERT_EQ(setup.result.Decide(4, 1), MatchDecision::kUndetermined);
  EID_ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainDecision(setup.result, setup.config, 4, 1));
  EXPECT_NE(text.find("decision: undetermined"), std::string::npos);
  EXPECT_NE(text.find("speciality"), std::string::npos);
  EXPECT_NE(text.find("NULL"), std::string::npos);
  EXPECT_NE(text.find("more identity/distinctness knowledge"),
            std::string::npos);
}

TEST(ExplainTest, OutOfRangeRejected) {
  Example3Setup setup = RunExample3();
  EXPECT_FALSE(ExplainDecision(setup.result, setup.config, 99, 0).ok());
  EXPECT_FALSE(ExplainDecision(setup.result, setup.config, 0, 99).ok());
}

// ---------------------------------------------------------------------
// Property: every NMT pair of every result carries a correct
// first-(rule, orientation)-wins certificate, and ExplainDecision cites
// it. Checked pair by pair against the interpreter
// (DistinctnessRule::Applies), independent of the engine that built the
// certificate column, at both thread counts, and the engine's column
// equals eid::reference's.

GeneratedWorld SmallWorld() {
  GeneratorConfig gen;
  gen.seed = 11;
  gen.overlap_entities = 16;
  gen.r_only_entities = 8;
  gen.s_only_entities = 8;
  gen.name_pool = 32;
  gen.street_pool = 40;
  gen.cities = 5;
  gen.speciality_pool = 12;
  gen.cuisines = 4;
  gen.ilfd_coverage = 1.0;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  return std::move(world).value();
}

void ExpectEveryNmtPairCertified(const IdentificationResult& result,
                                 const IdentifierConfig& config) {
  EID_ASSERT_OK_AND_ASSIGN(std::vector<DistinctnessRule> rules,
                           EffectiveDistinctnessRules(config));
  const std::vector<TuplePair>& pairs = result.negative.table.pairs();
  ASSERT_FALSE(pairs.empty());
  for (const TuplePair& pair : pairs) {
    const std::string where = "pair R" + std::to_string(pair.r_index) +
                              "/S" + std::to_string(pair.s_index);
    std::optional<NegativePairEvidence> e = result.negative.EvidenceFor(pair);
    ASSERT_TRUE(e.has_value()) << where;
    ASSERT_LT(e->rule_index, rules.size()) << where;
    TupleView r = result.r_extended.tuple(pair.r_index);
    TupleView s = result.s_extended.tuple(pair.s_index);
    auto truth = [&](uint32_t priority) {
      const DistinctnessRule& rule = rules[priority / 2];
      return (priority & 1) != 0 ? rule.Applies(s, r) : rule.Applies(r, s);
    };
    const uint32_t certificate =
        static_cast<uint32_t>(e->rule_index * 2 + (e->flipped ? 1 : 0));
    EXPECT_EQ(truth(certificate), Truth::kTrue) << where;
    for (uint32_t p = 0; p < certificate; ++p) {
      EXPECT_NE(truth(p), Truth::kTrue)
          << where << ": priority " << p << " fires before certificate "
          << certificate;
    }
    EID_ASSERT_OK_AND_ASSIGN(
        std::string text,
        ExplainDecision(result, config, pair.r_index, pair.s_index));
    EXPECT_NE(text.find("certified distinct"), std::string::npos)
        << where << "\n" << text;
  }
}

/// Every NMT pair of the engine's result, at threads 1 and 4, carries
/// the reference's certificate, and that certificate holds up.
void CheckAcrossEngines(IdentifierConfig config, const Relation& r,
                        const Relation& s) {
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           reference::Identify(config, r, s));
  ExpectEveryNmtPairCertified(reference, config);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.matcher_options.threads = threads;
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             EntityIdentifier(config).Identify(r, s));
    EXPECT_EQ(result.negative.table.pairs(), reference.negative.table.pairs());
    EXPECT_EQ(result.negative.evidence, reference.negative.evidence);
    ExpectEveryNmtPairCertified(result, config);
  }
}

TEST(ExplainPropertyTest, Proposition1WorldCertifiesEveryNmtPair) {
  GeneratedWorld world = SmallWorld();
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  CheckAcrossEngines(config, world.r, world.s);
}

TEST(ExplainPropertyTest, ExplicitRulesAheadOfProposition1) {
  // Explicit rules take the lowest priorities, and both overlap the
  // Proposition 1 rules' fire sets, so first-wins decides many pairs.
  GeneratedWorld world = SmallWorld();
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule clash,
      ParseDistinctnessRule(
          "cuisine_clash",
          "e1.cuisine = \"Cuisine0\" & e2.cuisine = \"Cuisine1\""));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule other_name,
      ParseDistinctnessRule("other_name",
                            "e1.name != e2.name & e1.cuisine = e2.cuisine"));
  config.distinctness_rules = {clash, other_name};
  CheckAcrossEngines(config, world.r, world.s);
}

TEST(ExplainPropertyTest, ExplicitRuleSessionCertifiesEveryNmtPair) {
  // The Example 2 session with the paper's r3 as its only rule.
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.distinctness_from_ilfds = false;
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule r3,
      ParseDistinctnessRule(
          "r3", "e2.speciality = \"Mughalai\" & e1.cuisine != \"Indian\""));
  config.distinctness_rules.push_back(r3);
  CheckAcrossEngines(config, r, s);
}

}  // namespace
}  // namespace eid
