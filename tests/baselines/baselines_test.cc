#include "baselines/baseline.h"

#include <gtest/gtest.h>

#include <vector>

#include "../test_util.h"
#include "baselines/heuristic_rules.h"
#include "baselines/ilfd_technique.h"
#include "baselines/key_equivalence.h"
#include "baselines/probabilistic_attr.h"
#include "baselines/probabilistic_key.h"
#include "baselines/user_specified.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(KeyEquivalenceTest, NotApplicableWithoutCommonKey) {
  // Table 1: R keyed (name, street), S keyed (name, city) — Example 1's
  // point is that key equivalence cannot be used here.
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  KeyEquivalenceMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.applicability.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.matching.size(), 0u);
}

TEST(KeyEquivalenceTest, MatchesOnSharedKey) {
  Relation r = MakeRelation("R", {"id", "a"}, {"id"},
                            {{"1", "x"}, {"2", "y"}});
  Relation s = MakeRelation("S", {"id", "b"}, {"id"},
                            {{"2", "p"}, {"3", "q"}});
  KeyEquivalenceMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{1, 0}));
}

TEST(KeyEquivalenceTest, UnsoundOnHomonyms) {
  // Fig. 2: identical keys, different entities — key equivalence matches
  // them anyway. Scored against ground truth (no true pairs) it is
  // unsound.
  Relation r = fixtures::Figure2R();
  Relation s = fixtures::Figure2S();
  KeyEquivalenceMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  EXPECT_EQ(result.matching.size(), 1u);
  MatchQuality q = Evaluate(result, /*ground_truth=*/{}, r.size(), s.size());
  EXPECT_FALSE(q.Sound());
  EXPECT_EQ(q.false_matches, 1u);
}

TEST(KeyEquivalenceTest, DeclareNonMatchesOption) {
  Relation r = MakeRelation("R", {"id"}, {"id"}, {{"1"}, {"2"}});
  Relation s = MakeRelation("S", {"id"}, {"id"}, {{"2"}});
  KeyEquivalenceOptions opts;
  opts.declare_non_matches = true;
  KeyEquivalenceMatcher matcher(AttributeCorrespondence::Identity(r, s), opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.negative.size(), 1u);
}

TEST(UserSpecifiedTest, MatchesAssertedPairsOnly) {
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  UserSpecifiedMatcher matcher(
      {UserEquivalence{{Value::Str("VillageWok"), Value::Str("Wash.Ave.")},
                       {Value::Str("VillageWok"), Value::Str("Mpls")}}});
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{0, 0}));
}

TEST(UserSpecifiedTest, DanglingAssertionFails) {
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  UserSpecifiedMatcher matcher(
      {UserEquivalence{{Value::Str("Ghost"), Value::Str("Nowhere")},
                       {Value::Str("VillageWok"), Value::Str("Mpls")}}});
  EXPECT_EQ(matcher.Match(r, s).status().code(), StatusCode::kNotFound);
}

TEST(SubfieldTest, SplitAndSimilarity) {
  std::vector<std::string> a = SplitSubfields("Village Wok Rest.", true);
  EXPECT_EQ(a, (std::vector<std::string>{"village", "wok", "rest"}));
  std::vector<std::string> b = SplitSubfields("village wok", true);
  EXPECT_NEAR(SubfieldSimilarity(a, b), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(SubfieldSimilarity(a, a), 1.0);
  EXPECT_EQ(SubfieldSimilarity({}, {}), 1.0);
  EXPECT_EQ(SubfieldSimilarity(a, {}), 0.0);
}

TEST(ProbabilisticKeyTest, MatchesApproximateNames) {
  Relation r = MakeRelation("R", {"name"}, {"name"},
                            {{"Village Wok Restaurant"}, {"Old Country"}});
  Relation s = MakeRelation("S", {"name"}, {"name"},
                            {{"village wok restaurant"}, {"Express Cafe"}});
  ProbabilisticKeyOptions opts;
  opts.match_threshold = 0.9;
  ProbabilisticKeyMatcher matcher(AttributeCorrespondence::Identity(r, s),
                                  opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{0, 0}));
  // Dissimilar pairs are declared non-matching.
  EXPECT_GT(result.negative.size(), 0u);
}

// Two candidates above the threshold on one S row: the greedy
// one-to-one pass takes the more similar one first, so row order alone
// would pick the wrong pairs.
TEST(ProbabilisticKeyTest, OneToOneTakesTheMostSimilarCandidateFirst) {
  Relation r = MakeRelation("R", {"name"}, {"name"},
                            {{"Village Wok"}, {"Village Wok Restaurant"}});
  Relation s = MakeRelation("S", {"name"}, {"name"},
                            {{"Village Wok Restaurant"}, {"Village Wok"}});
  ProbabilisticKeyOptions opts;
  opts.match_threshold = 0.6;  // 2/3 for the crossed pairs, 1 for the rest
  ProbabilisticKeyMatcher matcher(AttributeCorrespondence::Identity(r, s),
                                  opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  EXPECT_EQ(result.matching.pairs(),
            (std::vector<TuplePair>{{0, 1}, {1, 0}}));
}

TEST(ProbabilisticKeyTest, RequiresCommonKey) {
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  ProbabilisticKeyMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.applicability.code(), StatusCode::kFailedPrecondition);
}

TEST(ProbabilisticKeyTest, CanProduceErroneousMatches) {
  // "The probabilistic nature of matching may also admit erroneous
  // matching": distinct restaurants with near-identical names.
  Relation r = MakeRelation("R", {"name"}, {"name"}, {{"Twin Cities Cafe"}});
  Relation s = MakeRelation("S", {"name"}, {"name"},
                            {{"Twin Cities Cafe No 2"}});
  ProbabilisticKeyOptions opts;
  opts.match_threshold = 0.5;
  ProbabilisticKeyMatcher matcher(AttributeCorrespondence::Identity(r, s),
                                  opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  ASSERT_EQ(result.matching.size(), 1u);
  MatchQuality q = Evaluate(result, {}, 1, 1);
  EXPECT_EQ(q.false_matches, 1u);
}

TEST(ProbabilisticAttrTest, ComparisonValueWeighsCommonAttributes) {
  Relation r = MakeRelation("R", {"name", "cuisine"}, {"name"},
                            {{"Wok", "Chinese"}});
  Relation s = MakeRelation("S", {"name", "cuisine"}, {"name"},
                            {{"Wok", "Greek"}});
  ProbabilisticAttrMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(double value,
                           matcher.ComparisonValue(r.tuple(0), s.tuple(0)));
  EXPECT_NEAR(value, 0.5, 1e-9);
}

TEST(ProbabilisticAttrTest, ThresholdsSplitThreeWays) {
  Relation r = MakeRelation("R", {"a", "b"}, {"a", "b"},
                            {{"1", "1"}, {"2", "2"}, {"3", "3"}});
  Relation s = MakeRelation("S", {"a", "b"}, {"a", "b"},
                            {{"1", "1"}, {"2", "9"}, {"9", "9"}});
  ProbabilisticAttrOptions opts;
  opts.match_threshold = 1.0;
  opts.non_match_threshold = 0.5;
  ProbabilisticAttrMatcher matcher(AttributeCorrespondence::Identity(r, s),
                                   opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_TRUE(result.matching.Contains(TuplePair{0, 0}));
  // (1,1): half agreement → undetermined (neither table).
  EXPECT_FALSE(result.matching.Contains(TuplePair{1, 1}));
  EXPECT_FALSE(result.negative.Contains(TuplePair{1, 1}));
  // (0,2): zero agreement → non-match.
  EXPECT_TRUE(result.negative.Contains(TuplePair{0, 2}));
}

TEST(ProbabilisticAttrTest, OneToOneTakesTheHighestValueFirst) {
  Relation r = MakeRelation("R", {"name", "cuisine", "speciality"},
                            {"name", "speciality"},
                            {{"Wok", "Chinese", "Hunan"},
                             {"Wok", "Chinese", "Sichuan"}});
  Relation s = MakeRelation("S", {"name", "cuisine", "speciality"},
                            {"name", "speciality"},
                            {{"Wok", "Chinese", "Sichuan"},
                             {"Wok", "Chinese", "Hunan"}});
  ProbabilisticAttrOptions opts;
  opts.match_threshold = 0.6;  // 2/3 for the crossed pairs, 1 for the rest
  ProbabilisticAttrMatcher matcher(AttributeCorrespondence::Identity(r, s),
                                   opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  EXPECT_EQ(result.matching.pairs(),
            (std::vector<TuplePair>{{0, 1}, {1, 0}}));
}

TEST(ProbabilisticAttrTest, Figure2UnsoundMatch) {
  // The Fig. 2 failure: all common attributes agree, entities differ.
  Relation r = fixtures::Figure2R();
  Relation s = fixtures::Figure2S();
  ProbabilisticAttrMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.matching.size(), 1u);
  MatchQuality q = Evaluate(result, {}, 1, 1);
  EXPECT_FALSE(q.Sound());
}

TEST(ProbabilisticAttrTest, DomainAttributeRestoresSoundnessHere) {
  // With the domain attribute appended (paper §3.2), the comparison value
  // drops below 1 and the unsound match disappears.
  Relation r = fixtures::Figure2RWithDomain();
  Relation s = fixtures::Figure2SWithDomain();
  ProbabilisticAttrMatcher matcher(AttributeCorrespondence::Identity(r, s));
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.matching.size(), 0u);
}

TEST(HeuristicRulesTest, UnvalidatedRuleMatchesAndCanBeUnsound) {
  // Heuristic "same name ⇒ same entity" — invalid as a §3.2 identity rule
  // (it is validated nowhere here) and unsound on homonyms.
  Relation r = MakeRelation("R", {"name", "street"}, {"name", "street"},
                            {{"Wok", "A"}});
  Relation s = MakeRelation("S", {"name", "city"}, {"name", "city"},
                            {{"Wok", "X"}});
  HeuristicRuleMatcher matcher(
      AttributeCorrespondence::Identity(r, s),
      {IdentityRule::KeyEquivalence("same-name", {"name"})});
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EXPECT_EQ(result.matching.size(), 1u);
  // Against a ground truth where these are different entities:
  MatchQuality q = Evaluate(result, {}, 1, 1);
  EXPECT_FALSE(q.Sound());
}

TEST(HeuristicRulesTest, HeuristicDerivationFeedsRules) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  HeuristicRuleOptions opts;
  opts.heuristics = fixtures::Example2Ilfds();
  HeuristicRuleMatcher matcher(
      AttributeCorrespondence::Identity(r, s),
      {IdentityRule::KeyEquivalence("nc", {"name", "cuisine"})}, opts);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  ASSERT_EQ(result.matching.size(), 1u);
  EXPECT_EQ(result.matching.pairs()[0], (TuplePair{1, 0}));
}

TEST(IlfdTechniqueTest, AdapterMatchesIdentifier) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  IlfdTechniqueMatcher matcher(config);
  EID_ASSERT_OK_AND_ASSIGN(BaselineResult result, matcher.Match(r, s));
  EID_EXPECT_OK(result.applicability);
  EXPECT_EQ(result.matching.size(), 3u);
  EXPECT_GT(result.negative.size(), 0u);
}

TEST(EvaluateTest, CountsAllCategories) {
  BaselineResult result;
  EID_EXPECT_OK(result.matching.Add(TuplePair{0, 0}));  // true
  EID_EXPECT_OK(result.matching.Add(TuplePair{1, 1}));  // false
  // A true non-match and a false one.
  result.negative = NegativeTable::FromPairs({{0, 1}, {2, 2}});
  std::vector<TuplePair> truth = {{0, 0}, {2, 2}};
  MatchQuality q = Evaluate(result, truth, 3, 3);
  EXPECT_EQ(q.true_matches, 1u);
  EXPECT_EQ(q.false_matches, 1u);
  EXPECT_EQ(q.missed_matches, 1u);
  EXPECT_EQ(q.true_non_matches, 1u);
  EXPECT_EQ(q.false_non_matches, 1u);
  EXPECT_EQ(q.total_pairs, 9u);
  EXPECT_EQ(q.undetermined, 5u);
  EXPECT_FALSE(q.Sound());
  EXPECT_NEAR(q.Precision(), 0.5, 1e-9);
  EXPECT_NEAR(q.Recall(), 0.5, 1e-9);
}

}  // namespace
}  // namespace eid
