// The staged candidate generator must agree — pair for pair, priority
// for priority, in row-major order — with the exhaustive
// first-(rule,orientation)-wins fold it replaces: for join rules,
// const-only rules, unindexable rules, NULL join keys, multi-rule
// programs with overlapping fire sets, dead orientations, compiled and
// interpreted residuals, and every thread count. Const-eq conjuncts look
// their constants up in the session dictionary only after encoding the
// column; the constant-placement cases below pin that order.

#include "exec/candidate_generator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../test_util.h"
#include "compile/pair_program.h"
#include "rules/distinctness_rule.h"
#include "rules/identity_rule.h"

namespace eid {
namespace exec {
namespace {

using ::eid::testing::MakeRelation;

using RuleSet = std::vector<std::vector<Predicate>>;

std::vector<Predicate> Preds(const std::string& text) {
  Result<std::vector<Predicate>> parsed = ParsePredicateConjunction(text);
  EID_CHECK(parsed.ok());
  return *parsed;
}

/// One oracle-fired pair with the lowest (rule, orientation) priority
/// that fired it: priority = rule_index * 2 + (flipped ? 1 : 0).
struct OracleFired {
  TuplePair pair;
  uint32_t priority = 0;
};

/// Reference fold: row-major pairs, each recording the lowest
/// (rule, orientation) priority whose full antecedent is kTrue. Absent
/// attributes resolve to NULL (kUnknown), so dead orientations simply
/// never fire here.
std::vector<OracleFired> OracleFold(const Relation& r, const Relation& s,
                                    const RuleSet& rules) {
  std::vector<OracleFired> out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      for (uint32_t p = 0; p < rules.size() * 2; ++p) {
        const std::vector<Predicate>& preds = rules[p / 2];
        const bool flipped = (p & 1) != 0;
        TupleView rv = r.tuple(i);
        TupleView sv = s.tuple(j);
        Truth t = flipped ? EvaluateConjunction(preds, sv, rv)
                          : EvaluateConjunction(preds, rv, sv);
        if (t == Truth::kTrue) {
          out.push_back(OracleFired{TuplePair{i, j}, p});
          break;
        }
      }
    }
  }
  return out;
}

struct StagedRun {
  FiredColumns fired;
  StagedScanStats stats;
};

/// Builds plans and residual evaluators exactly the way the identifier
/// does and sweeps once.
StagedRun RunStaged(const Relation& r, const Relation& s, const RuleSet& rules,
                    bool compiled, int threads) {
  std::vector<BlockingPlan> plans;
  plans.reserve(rules.size() * 2);
  for (const std::vector<Predicate>& preds : rules) {
    for (bool flipped : {false, true}) {
      plans.push_back(PlanBlocking(preds, r.schema(), s.schema(), flipped));
    }
  }
  std::vector<std::unique_ptr<StagedEvaluator>> evaluators(plans.size());
  std::unique_ptr<compile::PairFeatureCache> features;
  if (compiled) {
    features = std::make_unique<compile::PairFeatureCache>(&r, &s);
  }
  for (size_t k = 0; k < rules.size(); ++k) {
    for (bool flipped : {false, true}) {
      const size_t i = k * 2 + (flipped ? 1 : 0);
      if (plans[i].impossible) continue;
      if (compiled) {
        evaluators[i] = std::make_unique<compile::StagedConjunction>(
            compile::StagedConjunction::Compile(rules[k], plans[i].coverage,
                                                r, s, flipped,
                                                features.get()));
      } else {
        evaluators[i] = std::make_unique<InterpretedResidual>(
            rules[k], plans[i].coverage, &r, &s, flipped);
      }
    }
  }
  ColumnarWorld world;
  CandidateGenerator gen(&r, &s, &world);
  for (size_t i = 0; i < plans.size(); ++i) {
    gen.AddRule(plans[i], evaluators[i].get());
  }
  ThreadPool pool(threads);
  StagedRun out;
  out.fired = gen.Run(threads > 1 ? &pool : nullptr, &out.stats);
  return out;
}

void ExpectSameFired(const FiredColumns& got,
                     const std::vector<OracleFired>& want) {
  ASSERT_EQ(got.pairs.size(), want.size());
  ASSERT_EQ(got.priorities.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.pairs[i], want[i].pair) << "fired pair " << i;
    EXPECT_EQ(got.priorities[i], want[i].priority) << "fired pair " << i;
  }
}

/// Asserts staged == oracle for both residual engines and every pool
/// size, and that every counter is engine- and thread-count-invariant.
/// Returns the invariant stats.
StagedScanStats ExpectMatchesOracle(const Relation& r, const Relation& s,
                                    const RuleSet& rules) {
  std::vector<OracleFired> expected = OracleFold(r, s, rules);
  StagedScanStats first;
  bool have_first = false;
  for (bool compiled : {false, true}) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(compiled ? "compiled" : "interpreted") +
                   " threads=" + std::to_string(threads));
      StagedRun run = RunStaged(r, s, rules, compiled, threads);
      ExpectSameFired(run.fired, expected);
      if (!have_first) {
        first = run.stats;
        have_first = true;
        continue;
      }
      EXPECT_EQ(run.stats.candidate_pairs, first.candidate_pairs);
      EXPECT_EQ(run.stats.rule_evals, first.rule_evals);
      EXPECT_EQ(run.stats.feature_cache_hits, first.feature_cache_hits);
      EXPECT_EQ(run.stats.indexed, first.indexed);
    }
  }
  return first;
}

Relation TestR() {
  return MakeRelation("R", {"name", "city", "score"}, {},
                      {{"anna", "Oslo", "1"},
                       {"bob", "Pune", "2"},
                       {"carl", "Oslo", "3"},
                       {"anna", "Pune", "4"},
                       {"dana", "Lima", "2"}});
}

Relation TestS() {
  return MakeRelation("S", {"name", "town", "rank"}, {},
                      {{"anna", "Oslo", "1"},
                       {"bob", "Lima", "3"},
                       {"anna", "Pune", "2"},
                       {"erik", "Oslo", "2"}});
}

TEST(CandidateGeneratorTest, JoinRuleMatchesOracle) {
  RuleSet rules = {Preds("e1.name = e2.name & e1.city = e2.town")};
  StagedScanStats stats = ExpectMatchesOracle(TestR(), TestS(), rules);
  EXPECT_TRUE(stats.indexed);
  EXPECT_LT(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CandidateGeneratorTest, ConstOnlyRuleMatchesOracle) {
  // Direct orientation: an r const filter plus a residual. Flipped
  // orientation is dead (S has no "city"), and must silently consume
  // its priority slot.
  RuleSet rules = {Preds("e1.city = \"Oslo\" & e2.rank != \"1\"")};
  StagedScanStats stats = ExpectMatchesOracle(TestR(), TestS(), rules);
  EXPECT_FALSE(stats.indexed);
  EXPECT_LT(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CandidateGeneratorTest, UnindexableRuleScansEveryPair) {
  RuleSet rules = {Preds("e1.score < e2.rank")};
  StagedScanStats stats = ExpectMatchesOracle(TestR(), TestS(), rules);
  EXPECT_FALSE(stats.indexed);
  // Only the direct orientation is live (flipped binds absent
  // attributes), and nothing bounds it: the forced-quadratic case the
  // analyzer warns about (EID-W009).
  EXPECT_EQ(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CandidateGeneratorTest, OverlappingRulesRecordLowestPriority) {
  RuleSet rules = {Preds("e1.name = e2.name"), Preds("e1.city = e2.town")};
  std::vector<OracleFired> expected = OracleFold(TestR(), TestS(), rules);
  // The fixture makes priorities interesting: some pairs fire under both
  // rules (rule 0 must win), some only under the city/town rule.
  bool saw_rule0 = false, saw_rule1 = false;
  for (const OracleFired& f : expected) {
    if (f.priority == 0) saw_rule0 = true;
    if (f.priority == 2) saw_rule1 = true;
  }
  ASSERT_TRUE(saw_rule0);
  ASSERT_TRUE(saw_rule1);
  ExpectMatchesOracle(TestR(), TestS(), rules);
}

TEST(CandidateGeneratorTest, RowOnlyConjunctsHoistAcrossCandidates) {
  // e1.score != "2" reads only the r row: it must be evaluated once per
  // row and reused across that row's join candidates.
  RuleSet rules = {Preds("e1.name = e2.name & e1.score != \"2\"")};
  StagedScanStats stats = ExpectMatchesOracle(TestR(), TestS(), rules);
  EXPECT_GT(stats.feature_cache_hits, 0u);
}

TEST(CandidateGeneratorTest, NullJoinKeysNeverFire) {
  Relation r("R", Schema::OfStrings({"name"}));
  EID_ASSERT_OK(r.Insert(Row{Value::Str("anna")}));
  EID_ASSERT_OK(r.Insert(Row{Value::Null()}));
  Relation s("S", Schema::OfStrings({"name"}));
  EID_ASSERT_OK(s.Insert(Row{Value::Null()}));
  EID_ASSERT_OK(s.Insert(Row{Value::Str("anna")}));
  RuleSet rules = {Preds("e1.name = e2.name")};
  ExpectMatchesOracle(r, s, rules);
}

TEST(CandidateGeneratorTest, AmqMissesKillProbesWithoutChangingResults) {
  // Most r names are absent from s. The membership miss that an
  // approximate filter used to report is now exact: an absent value's
  // posting range is empty, so no candidate is evaluated for it, and
  // the fired set is still exactly the oracle's.
  Relation r = MakeRelation("R", {"name"}, {},
                            {{"anna"}, {"bob"}, {"carl"}, {"dana"}, {"erik"}});
  Relation s = MakeRelation("S", {"name"}, {}, {{"anna"}, {"xu"}, {"yi"}});
  RuleSet rules = {Preds("e1.name = e2.name")};
  StagedScanStats stats = ExpectMatchesOracle(r, s, rules);
  // Only anna x anna reaches the residual, once: the flipped orientation
  // skips the pair the direct one already fired.
  EXPECT_EQ(stats.candidate_pairs, 1u);
}

TEST(CandidateGeneratorTest, DeadConstantKillsWholeOrientation) {
  // No r row has city = "Atlantis" and no column interned it: the
  // dictionary lookup misses and the orientation dies at AddRule time
  // with zero candidates.
  RuleSet rules = {Preds("e1.city = \"Atlantis\" & e1.name = e2.name")};
  StagedScanStats stats = ExpectMatchesOracle(TestR(), TestS(), rules);
  EXPECT_EQ(stats.candidate_pairs, 0u);
}

TEST(CandidateGeneratorTest, ConstantOnlyInAnUnencodedColumnStillFires) {
  // "Lima" occurs only in r.city, and no earlier stage encoded that
  // column: the dictionary first sees "Lima" when the filter encodes
  // it. Looking the constant up before that encode would read it as
  // absent and kill an orientation that fires.
  Relation r = MakeRelation("R", {"name", "city"}, {},
                            {{"anna", "Oslo"}, {"bob", "Lima"}});
  Relation s = MakeRelation("S", {"name", "rank"}, {},
                            {{"anna", "1"}, {"bob", "2"}});
  RuleSet rules = {Preds("e1.city = \"Lima\" & e1.name = e2.name")};
  std::vector<OracleFired> expected = OracleFold(r, s, rules);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].pair, (TuplePair{1, 1}));
  StagedScanStats stats = ExpectMatchesOracle(r, s, rules);
  EXPECT_EQ(stats.candidate_pairs, 1u);
}

TEST(CandidateGeneratorTest, ConstantInternedThroughAnotherColumnIsAbsent) {
  // "Oslo" is in the dictionary — s.town holds it — but r.city does
  // not: the filter's posting range is empty and the orientation dies,
  // whichever column interned the value first.
  Relation r = MakeRelation("R", {"name", "city"}, {},
                            {{"anna", "Pune"}, {"bob", "Lima"}});
  Relation s = MakeRelation("S", {"name", "town"}, {},
                            {{"anna", "Oslo"}, {"bob", "Oslo"}});
  RuleSet rules = {Preds("e2.town = \"Oslo\" & e1.city = \"Oslo\"")};
  for (int threads : {1, 8}) {
    ColumnarWorld world;
    // Encode s.town first, so "Oslo" has an id before r.city is probed.
    world.Column(WorldRel::kSExtended, s, 1);
    ASSERT_NE(world.dict().Find(Value::Str("Oslo")),
              ValueDictionary::kNotInterned);
    CandidateGenerator gen(&r, &s, &world);
    std::vector<BlockingPlan> plans;
    std::vector<std::unique_ptr<StagedEvaluator>> evaluators;
    for (bool flipped : {false, true}) {
      plans.push_back(PlanBlocking(rules[0], r.schema(), s.schema(), flipped));
      evaluators.push_back(
          plans.back().impossible
              ? nullptr
              : std::make_unique<InterpretedResidual>(
                    rules[0], plans.back().coverage, &r, &s, flipped));
    }
    for (size_t i = 0; i < plans.size(); ++i) {
      gen.AddRule(plans[i], evaluators[i].get());
    }
    ThreadPool pool(threads);
    StagedScanStats stats;
    FiredColumns fired = gen.Run(threads > 1 ? &pool : nullptr, &stats);
    EXPECT_TRUE(fired.pairs.empty());
    EXPECT_EQ(stats.candidate_pairs, 0u);
  }
  ExpectMatchesOracle(r, s, rules);
}

TEST(CandidateGeneratorTest, RealRuleShapesAgree) {
  // The paper's r1/r3 shapes through the public rule parsers, mixed into
  // one program so priorities span identity- and distinctness-style
  // antecedents.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule r1,
      ParseIdentityRule("r1",
                        "e1.name = e2.name & e1.city = \"Oslo\" & "
                        "e2.town = \"Oslo\""));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule r3,
      ParseDistinctnessRule("r3", "e1.city = \"Lima\" & e2.rank != \"3\""));
  RuleSet rules = {r1.predicates(), r3.predicates()};
  ExpectMatchesOracle(TestR(), TestS(), rules);
}

}  // namespace
}  // namespace exec
}  // namespace eid
