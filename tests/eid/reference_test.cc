// The paper-literal reference (eid/reference.h) reproduces the paper's
// worked tables on its own: Table 3 (Example 2's matching table), Table 4
// (Example 2's negative matching table, from the Proposition 1 rule of
// the Mughalai ILFD) and Table 7 (Example 3's matching table). The
// engine is checked against the reference elsewhere
// (tests/compile/differential_test.cc); these cases anchor the reference
// itself to the paper.

#include "eid/reference.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

IdentifierConfig Example2Config(const Relation& r, const Relation& s) {
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example2ExtendedKey();
  config.ilfds = fixtures::Example2Ilfds();
  return config;
}

TEST(ReferenceTest, Table3MatchingTable) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  EID_ASSERT_OK_AND_ASSIGN(
      IdentificationResult result,
      reference::Identify(Example2Config(r, s), r, s));
  // Table 3: one row — TwinCities | Indian | TwinCities. S' derives
  // cuisine = Indian for the Mughalai restaurant, so only R's Indian
  // TwinCities agrees with it on the extended key {name, cuisine}.
  EXPECT_EQ(result.matching.pairs(), (std::vector<TuplePair>{{1, 0}}));
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result.MatchingRelation());
  ASSERT_EQ(mt.size(), 1u);
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.name").AsString(), "TwinCities");
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.cuisine").AsString(), "Indian");
  EXPECT_EQ(mt.tuple(0).GetOrNull("S.name").AsString(), "TwinCities");
  EXPECT_TRUE(result.Sound());
}

TEST(ReferenceTest, Table4NegativeMatchingTable) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config = Example2Config(r, s);
  config.distinctness_from_ilfds = true;
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           reference::Identify(config, r, s));
  // Table 4: the Chinese TwinCities is certified distinct from the
  // Mughalai one by the Proposition 1 rule of speciality=Mughalai ->
  // cuisine=Indian: e1 (the S tuple) has the speciality, e2 (the R tuple)
  // a cuisine other than Indian — the rule's flipped orientation, since
  // R' has no speciality column.
  EXPECT_EQ(result.negative.table.pairs(), (std::vector<TuplePair>{{0, 0}}));
  std::optional<NegativePairEvidence> evidence =
      result.negative.EvidenceFor(TuplePair{0, 0});
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(evidence->rule_index, 0u);
  EXPECT_TRUE(evidence->flipped);
  EXPECT_EQ(result.Decide(0, 0), MatchDecision::kNonMatch);
  EXPECT_EQ(result.Decide(1, 0), MatchDecision::kMatch);
  EID_EXPECT_OK(result.consistency);
  EXPECT_EQ(result.partition.undetermined, 0u);

  // Without the ILFD-induced rule nothing is certified distinct.
  config.distinctness_from_ilfds = false;
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult no_rules,
                           reference::Identify(config, r, s));
  EXPECT_TRUE(no_rules.negative.table.empty());
  EXPECT_EQ(no_rules.Decide(0, 0), MatchDecision::kUndetermined);
}

TEST(ReferenceTest, Table7MatchingTable) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                           reference::Identify(config, r, s));
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, result.MatchingRelation());
  mt.SortRows();
  ASSERT_EQ(mt.size(), 3u);
  // Sorted rows: Anjuman, It'sGreek, TwinCities (Chinese, Hunan).
  EXPECT_EQ(mt.tuple(0).GetOrNull("R.name").AsString(), "Anjuman");
  EXPECT_EQ(mt.tuple(1).GetOrNull("R.name").AsString(), "It'sGreek");
  EXPECT_EQ(mt.tuple(2).GetOrNull("R.name").AsString(), "TwinCities");
  EXPECT_EQ(mt.tuple(2).GetOrNull("R.cuisine").AsString(), "Chinese");
  EXPECT_EQ(mt.tuple(2).GetOrNull("S.speciality").AsString(), "Hunan");
  EXPECT_TRUE(result.Sound());
}

}  // namespace
}  // namespace eid
