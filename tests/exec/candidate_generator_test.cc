// The staged candidate generator must agree — pair for pair, priority
// for priority, in row-major order — with the nested-loop
// first-(rule,orientation)-wins fold of the paper's definition: for join
// rules, const-only rules, unindexable rules, NULL join keys, multi-rule
// programs with overlapping fire sets, dead orientations, and every
// thread count. Its counters must equal a brute-force count of the
// blocking contract. Const-eq conjuncts look their constants up in the
// session dictionary only after encoding the column; the
// constant-placement cases below pin that order. The Proposition 1
// drains (whole S-row sets fired without PairTruth) are checked at every
// word-boundary size of S.

#include "exec/candidate_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Builds plans and compiled residuals exactly the way the identifier
/// does and sweeps once. `world` starts empty unless the caller encoded
/// columns into it.
StagedRun RunStaged(const Relation& r, const Relation& s, const RuleSet& rules,
                    int threads, ColumnarWorld world = ColumnarWorld()) {
  std::vector<BlockingPlan> plans;
  plans.reserve(rules.size() * 2);
  for (const std::vector<Predicate>& preds : rules) {
    for (bool flipped : {false, true}) {
      plans.push_back(PlanBlocking(preds, r.schema(), s.schema(), flipped));
      ChooseProbe(&plans.back(), world, s);
    }
  }
  std::vector<std::unique_ptr<StagedEvaluator>> evaluators(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].impossible) continue;
    evaluators[i] = std::make_unique<compile::StagedConjunction>(
        compile::StagedConjunction::Compile(rules[i / 2], plans[i].coverage,
                                            r, s, (i & 1) != 0, world));
  }
  CandidateGenerator gen(&r, &s, world);
  for (size_t i = 0; i < plans.size(); ++i) {
    gen.AddRule(plans[i], evaluators[i].get());
  }
  ThreadPool pool(threads);
  StagedRun out;
  out.fired = gen.Run(threads > 1 ? &pool : nullptr, &out.stats).Materialize();
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

bool StorageEqual(const Value& a, const Value& b) {
  return CompareValues(a, CompareOp::kEq, b) == Truth::kTrue;
}

/// Brute-force counters of one sweep, from the blocking contract written
/// out over Values. A (rule, orientation) is live unless an attribute is
/// absent or some `side.attr = c` conjunct's c is in no row of its side.
/// It is consulted for the r rows passing its r-side constant equalities
/// and costs one row-part evaluation there when some other conjunct
/// reads only the r row. Its candidates are the s rows sharing the value
/// of the cross-entity equality whose s column holds the most distinct
/// non-NULL values (the first on ties), or else the s rows passing its
/// s-side constant equalities; each one not fired at a lower priority
/// costs one pair evaluation, and one feature-cache hit behind a row
/// part. Every r column an equality or inequality pair conjunct reads
/// adds a non-NULL check to the row part when it holds a NULL cell
/// (StagedConjunction::Compile).
StagedScanStats BruteForceCounts(const Relation& r, const Relation& s,
                                 const RuleSet& rules) {
  StagedScanStats out;
  if (r.empty() || s.empty()) return out;
  struct Orientation {
    const std::vector<Predicate>* preds = nullptr;
    bool flipped = false;
    bool live = true;
    std::vector<std::pair<size_t, Value>> r_filters, s_filters;
    bool has_join = false;
    size_t r_join = 0, s_join = 0;
    std::vector<Predicate> row_part;  // conjuncts reading only the r row
  };
  std::vector<Orientation> orientations;
  for (const std::vector<Predicate>& preds : rules) {
    for (bool flipped : {false, true}) {
      Orientation o;
      o.preds = &preds;
      o.flipped = flipped;
      auto r_side = [&](const Operand& x) {
        return (x.entity == 1) != flipped;
      };
      auto column = [&](const Operand& x) {
        return (r_side(x) ? r : s).schema().IndexOf(x.attribute);
      };
      for (const Predicate& p : preds) {
        for (const Operand* x : {&p.lhs, &p.rhs}) {
          if (x->kind == Operand::Kind::kEntityAttribute &&
              !column(*x).has_value()) {
            o.live = false;
          }
        }
      }
      if (!o.live) {
        orientations.push_back(o);
        continue;
      }
      // Distinct non-NULL values of s column c.
      auto distinct = [&](size_t c) {
        std::vector<Value> seen;
        for (const Row& row : s.rows()) {
          if (row[c].is_null()) continue;
          bool known = false;
          for (const Value& v : seen) known = known || StorageEqual(v, row[c]);
          if (!known) seen.push_back(row[c]);
        }
        return seen.size();
      };
      const Predicate* probe = nullptr;
      size_t probe_distinct = 0;
      for (const Predicate& p : preds) {
        if (p.op == CompareOp::kEq &&
            p.lhs.kind == Operand::Kind::kEntityAttribute &&
            p.rhs.kind == Operand::Kind::kEntityAttribute &&
            p.lhs.entity != p.rhs.entity) {
          const size_t d = distinct(*column(r_side(p.lhs) ? p.rhs : p.lhs));
          if (probe == nullptr || d > probe_distinct) {
            probe = &p;
            probe_distinct = d;
          }
        }
      }
      std::vector<std::pair<size_t, Value>> s_join_consts;
      std::vector<size_t> non_null_columns;
      for (const Predicate& p : preds) {
        const bool lhs_attr = p.lhs.kind == Operand::Kind::kEntityAttribute;
        const bool rhs_attr = p.rhs.kind == Operand::Kind::kEntityAttribute;
        if (&p == probe) {
          o.has_join = true;
          const Operand& rx = r_side(p.lhs) ? p.lhs : p.rhs;
          const Operand& sx = r_side(p.lhs) ? p.rhs : p.lhs;
          o.r_join = *column(rx);
          o.s_join = *column(sx);
          continue;
        }
        if (p.op == CompareOp::kEq && lhs_attr != rhs_attr) {
          const Operand& x = lhs_attr ? p.lhs : p.rhs;
          const Value& c = lhs_attr ? p.rhs.constant : p.lhs.constant;
          auto& filters = r_side(x) ? o.r_filters : s_join_consts;
          filters.emplace_back(*column(x), c);
          continue;
        }
        bool row_only = true;
        for (const Operand* x : {&p.lhs, &p.rhs}) {
          if (x->kind == Operand::Kind::kEntityAttribute && !r_side(*x)) {
            row_only = false;
          }
        }
        if (row_only) {
          o.row_part.push_back(p);
        } else if (p.op == CompareOp::kEq || p.op == CompareOp::kNe) {
          // An id pair conjunct: each r column it reads that holds a
          // NULL cell adds `x = x` (kTrue iff non-NULL) to the row part,
          // once per column.
          auto holds_null = [&](size_t c) {
            return std::any_of(
                r.rows().begin(), r.rows().end(),
                [&](const Row& row) { return row[c].is_null(); });
          };
          for (const Operand* x : {&p.lhs, &p.rhs}) {
            if (x->kind != Operand::Kind::kEntityAttribute || !r_side(*x) ||
                !holds_null(*column(*x)) ||
                std::find(non_null_columns.begin(), non_null_columns.end(),
                          *column(*x)) != non_null_columns.end()) {
              continue;
            }
            non_null_columns.push_back(*column(*x));
            o.row_part.push_back(Predicate{*x, CompareOp::kEq, *x});
          }
        }
      }
      // s-side constants filter the candidates unless a join drives them;
      // either way one absent from its column kills the orientation.
      if (!o.has_join) o.s_filters = s_join_consts;
      auto held = [](const Relation& rel, size_t c, const Value& v) {
        for (const Row& row : rel.rows()) {
          if (StorageEqual(row[c], v)) return true;
        }
        return false;
      };
      for (const auto& [c, v] : o.r_filters) {
        o.live = o.live && held(r, c, v);
      }
      for (const auto& [c, v] : s_join_consts) {
        o.live = o.live && held(s, c, v);
      }
      orientations.push_back(o);
    }
  }
  for (size_t i = 0; i < r.size(); ++i) {
    std::vector<bool> fired(s.size(), false);
    for (const Orientation& o : orientations) {
      if (!o.live) continue;
      bool consulted = true;
      for (const auto& [c, v] : o.r_filters) {
        consulted = consulted && StorageEqual(r.row(i)[c], v);
      }
      if (!consulted) continue;
      auto truth = [&](const std::vector<Predicate>& preds, size_t j) {
        return o.flipped ? EvaluateConjunction(preds, s.tuple(j), r.tuple(i))
                         : EvaluateConjunction(preds, r.tuple(i), s.tuple(j));
      };
      const bool has_row_part = !o.row_part.empty();
      if (has_row_part) {
        ++out.rule_evals;
        if (truth(o.row_part, 0) != Truth::kTrue) continue;
      }
      for (size_t j = 0; j < s.size(); ++j) {
        bool candidate = !fired[j];
        if (o.has_join) {
          candidate = candidate && StorageEqual(r.row(i)[o.r_join],
                                                s.row(j)[o.s_join]);
        }
        for (const auto& [c, v] : o.s_filters) {
          candidate = candidate && StorageEqual(s.row(j)[c], v);
        }
        if (!candidate) continue;
        ++out.candidate_pairs;
        ++out.rule_evals;
        if (has_row_part) ++out.feature_cache_hits;
        if (truth(*o.preds, j) == Truth::kTrue) fired[j] = true;
      }
    }
  }
  return out;
}

/// Asserts staged == oracle for every pool size, and that every counter
/// is thread-count-invariant and equals the brute-force count. Returns
/// the invariant stats.
StagedScanStats ExpectMatchesOracle(const Relation& r, const Relation& s,
                                    const RuleSet& rules) {
  std::vector<OracleFired> expected = OracleFold(r, s, rules);
  const StagedScanStats counted = BruteForceCounts(r, s, rules);
  StagedScanStats first;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StagedRun run = RunStaged(r, s, rules, threads);
    ExpectSameFired(run.fired, expected);
    EXPECT_EQ(run.stats.candidate_pairs, counted.candidate_pairs);
    EXPECT_EQ(run.stats.rule_evals, counted.rule_evals);
    EXPECT_EQ(run.stats.feature_cache_hits, counted.feature_cache_hits);
    if (threads == 1) {
      first = run.stats;
      continue;
    }
    EXPECT_EQ(run.stats.indexed, first.indexed);
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

TEST(CandidateGeneratorTest, ProbesTheJoinWithTheMostDistinctSValues) {
  // S.city holds 2 values and S.name 4: each orientation probes name.
  // Direct: anna, bob and carl have one same-name s row each. Flipped:
  // only bob's pair is still unfired. Probing city would read 2 s rows
  // per r row instead.
  Relation r = MakeRelation("R", {"city", "name"}, {},
                            {{"Oslo", "anna"},
                             {"Oslo", "bob"},
                             {"Pune", "carl"},
                             {"Pune", "dana"}});
  Relation s = MakeRelation("S", {"city", "name"}, {},
                            {{"Oslo", "anna"},
                             {"Pune", "bob"},
                             {"Pune", "carl"},
                             {"Oslo", "erik"}});
  RuleSet rules = {Preds("e1.city = e2.city & e1.name = e2.name")};
  StagedScanStats stats = ExpectMatchesOracle(r, s, rules);
  EXPECT_EQ(stats.candidate_pairs, 4u);
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
    StagedRun run = RunStaged(r, s, rules, threads, std::move(world));
    EXPECT_TRUE(run.fired.pairs.empty());
    EXPECT_EQ(run.stats.candidate_pairs, 0u);
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

// --- Proposition 1 drains -------------------------------------------------

/// Cell `i` of a deterministic cycle over `values`; "" is NULL.
Value Cell(const std::vector<std::string>& values, size_t i) {
  const std::string& v = values[i % values.size()];
  return v.empty() ? Value::Null() : Value::String(v);
}

/// R(a, b, k) and S(a, b, k) with `n` rows each side. The cycles have
/// coprime lengths, so every combination of a, b (NULL included) and the
/// join key k occurs.
Relation DrainRelation(const std::string& name, size_t n, size_t shift) {
  Relation rel(name, Schema::OfStrings({"a", "b", "k"}));
  const std::vector<std::string> as = {"a1", "a2", "", "a0"};
  const std::vector<std::string> bs = {"b1", "b2", "b3", "", "b1"};
  const std::vector<std::string> ks = {"k1", "k2", "", "k3", "k4", "k5",
                                       "k6"};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(rel.Insert(Row{Cell(as, i + shift), Cell(bs, i * 3 + shift),
                               Cell(ks, i + 2 * shift)})
                    .ok());
  }
  return rel;
}

TEST(CandidateGeneratorTest, Prop1DrainsAtEveryWordBoundary) {
  // Proposition 1 rules (e1.a = c ∧ e2.b ≠ d): the direct orientation is
  // the `s.b != d` drain over all of S, the flipped one an empty pair
  // part over the s rows with a = c. `e1.a = c ∧ e1.b ≠ d` reads only
  // the r row, so its direct orientation drains every s word by word
  // (tail word included) and its flipped one is `s.b != d` over a
  // filtered list, which stays per candidate. NULL b cells must never
  // fire a `!=`.
  const RuleSet rules = {Preds("e1.a = \"a1\" & e2.b != \"b1\""),
                         Preds("e1.a = \"a2\" & e1.b != \"b2\""),
                         Preds("e1.a = \"a0\" & e2.b != \"b3\"")};
  for (size_t s_n : {1, 63, 64, 65, 129}) {
    SCOPED_TRACE("|S|=" + std::to_string(s_n));
    const Relation r = DrainRelation("R", 40, 0);
    const Relation s = DrainRelation("S", s_n, 1);
    const StagedScanStats stats = ExpectMatchesOracle(r, s, rules);
    EXPECT_GT(stats.candidate_pairs, 0u);
    EXPECT_GT(stats.feature_cache_hits, 0u);
  }
}

TEST(CandidateGeneratorTest, NotEqualDrainWithConstantAbsentFromColumn) {
  // "zz" is in no column (interned by the compile step alone), and "a1"
  // only through column a: each `!=` fires on every non-NULL b.
  const Relation r = DrainRelation("R", 24, 0);
  const Relation s = DrainRelation("S", 70, 2);
  ExpectMatchesOracle(r, s, {Preds("e1.a = \"a1\" & e2.b != \"zz\"")});
  ExpectMatchesOracle(r, s, {Preds("e1.a = \"a2\" & e2.b != \"a1\"")});
  const RuleSet other_column = {Preds("e1.a = \"a2\" & e2.b != \"a1\"")};
  for (int threads : {1, 8}) {
    ColumnarWorld world;
    world.Column(WorldRel::kSExtended, s, 0);  // interns "a1" via s.a
    StagedRun run = RunStaged(r, s, other_column, threads, std::move(world));
    ExpectSameFired(run.fired, OracleFold(r, s, other_column));
  }
}

TEST(CandidateGeneratorTest, JoinEntriesWithEmptyResidualDrainTheirRange) {
  // Direct: a join plus an r filter, nothing left per pair. Flipped: the
  // s-side constant stays a pair conjunct under the join.
  const Relation r = DrainRelation("R", 50, 0);
  const Relation s = DrainRelation("S", 65, 3);
  const StagedScanStats stats = ExpectMatchesOracle(
      r, s, {Preds("e1.k = e2.k & e1.a = \"a1\""), Preds("e1.k = e2.k")});
  EXPECT_TRUE(stats.indexed);
}

TEST(CandidateGeneratorTest, DrainsSkipPairsFiredAtLowerPriority) {
  // Rule 0 runs per candidate (an ordering conjunct falls back to
  // Values) and fires part of each row first; the drains after it must
  // neither count nor re-certify those pairs. Rule 2 runs per candidate
  // after the drains and must skip what they fired.
  const Relation r = DrainRelation("R", 36, 0);
  const Relation s = DrainRelation("S", 129, 1);
  const RuleSet rules = {Preds("e1.k < e2.k & e1.b = e2.b"),
                         Preds("e1.a = \"a1\" & e2.b != \"b2\""),
                         Preds("e1.b = e2.b & e1.a != e2.a")};
  std::vector<OracleFired> expected = OracleFold(r, s, rules);
  bool saw[3] = {false, false, false};
  for (const OracleFired& f : expected) saw[f.priority / 2] = true;
  ASSERT_TRUE(saw[0] && saw[1] && saw[2]);
  ExpectMatchesOracle(r, s, rules);
}

TEST(CandidateGeneratorTest, ChunksSizedFromFirstRowsKeepTheirContent) {
  // Chunk columns are reserved from their first rows' fired count. Rows
  // (a1, b1) fire on most of S and rows (a9, b2) on nothing: put the
  // dense rows last (first rows fire nothing, the estimate is 0) and
  // first (the estimate overshoots the sparse rest). The switch falls
  // inside a chunk at threads=2 (12-row chunks, sized after one row).
  Relation s = DrainRelation("S", 100, 1);
  for (bool dense_first : {false, true}) {
    SCOPED_TRACE(dense_first ? "dense first" : "dense last");
    Relation r("R", Schema::OfStrings({"a", "b", "k"}));
    for (size_t i = 0; i < 96; ++i) {
      const bool dense = dense_first ? i < 42 : i >= 54;
      EID_ASSERT_OK(r.Insert(Row{Value::Str(dense ? "a1" : "a9"),
                                 Value::Str(dense ? "b1" : "b2"),
                                 Value::Str("k1")}));
    }
    ExpectMatchesOracle(r, s, {Preds("e1.a = \"a1\" & e2.b != \"b2\"")});
  }
}

// A complement row's certificate is the minimum priority over its
// exceptions at s and its descriptors whose set holds s. The sweep never
// records an exception under a lower-priority descriptor holding it (that
// descriptor would have fired the pair first), so the state is built by
// hand: one row of four s rows, all fired by a describable entry of
// priority 2, with exceptions at s = 1 (priority 5) and s = 2 (priority 1).
TEST(CandidateGeneratorTest, CertificateIsTheMinimumOverExceptionsAndRules) {
  auto rules = std::make_shared<RowRules>(4);
  FiredRows rows;
  rows.complement = ComplementRows{4, {0}, {0}, {}};
  ComplementCertificates& certificates = rows.certificates;
  certificates.rules = rules;
  certificates.fired = {rules->AddAll(/*priority=*/2)};
  certificates.fired_end = {1};
  certificates.exception_s = {1, 2};
  certificates.exception_priority = {5, 1};
  certificates.exceptions_end = {2};
  EXPECT_EQ(rows.CertificateOf(TuplePair{0, 0}), 2u);
  EXPECT_EQ(rows.CertificateOf(TuplePair{0, 1}), 2u);
  EXPECT_EQ(rows.CertificateOf(TuplePair{0, 2}), 1u);
  EXPECT_EQ(rows.CertificateOf(TuplePair{0, 4}), std::nullopt);
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> priorities;
  rows.AppendRowMajor(&pairs, &priorities);
  EXPECT_EQ(pairs, (std::vector<TuplePair>{{0, 0}, {0, 1}, {0, 2}, {0, 3}}));
  EXPECT_EQ(priorities, (std::vector<uint32_t>{2, 2, 1, 2}));
}

}  // namespace
}  // namespace exec
}  // namespace eid
