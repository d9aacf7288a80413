// Differential property test of the production engine against the
// paper-literal reference (eid/reference.h): `Identify` must produce an
// IdentificationResult bit-identical to eid::reference::Identify —
// extended rows, derivation traces with provenance, MT/NMT contents and
// order, certificates, verdicts, partition and error statuses — across
// DerivationMode × ConflictPolicy × thread counts, on generated worlds
// and on worlds with injected ILFD conflicts. The reference runs once per
// world and derivation setting; production runs at threads 1 and 8
// against that one result, and its stage counters must agree across the
// two thread counts. The same contract is checked for
// IncrementalIdentifier under inserts and deletes. This test runs under
// the tsan/asan presets (scripts/check.sh).

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "../test_util.h"
#include "eid/identifier.h"
#include "eid/incremental.h"
#include "eid/reference.h"
#include "workload/generator.h"

namespace eid {
namespace {

GeneratedWorld MakeWorld(double coverage, uint64_t seed) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.overlap_entities = 120;
  gen.r_only_entities = 60;
  gen.s_only_entities = 60;
  gen.name_pool = 96;
  gen.street_pool = 128;
  gen.cities = 16;
  gen.speciality_pool = 64;
  gen.cuisines = 8;
  gen.ilfd_coverage = coverage;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  return std::move(world).value();
}

/// The determinism_test rule program: an indexed identity rule, a
/// constant-only identity rule, an explicit distinctness rule and the
/// Proposition 1 rules, so every compiled artifact kind participates.
IdentifierConfig WorldConfig(const GeneratedWorld& world) {
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.identity_rules.push_back(
      IdentityRule::KeyEquivalence("key_eq", {"name", "speciality"}));
  EID_CHECK(config.identity_rules.back().Validate().ok());
  Result<IdentityRule> const_rule = ParseIdentityRule(
      "const_pair",
      "e1.speciality = \"Speciality0\" & e2.speciality = \"Speciality0\"");
  EID_CHECK(const_rule.ok());
  config.identity_rules.push_back(*const_rule);
  Result<DistinctnessRule> distinct = ParseDistinctnessRule(
      "cuisine_clash", "e1.cuisine = \"Cuisine0\" & e2.cuisine = \"Cuisine1\"");
  EID_CHECK(distinct.ok());
  config.distinctness_rules.push_back(*distinct);
  config.distinctness_from_ilfds = true;
  return config;
}

void SetDerivation(IdentifierConfig* config, DerivationMode mode,
                   ConflictPolicy policy) {
  config->matcher_options.extension.derivation.mode = mode;
  config->matcher_options.extension.derivation.conflict_policy = policy;
}

/// `reference` is eid::reference::Identify's result, `result` the
/// engine's: every result bit agrees, NMT certificates entry for entry.
void ExpectIdentical(const IdentificationResult& reference,
                     const IdentificationResult& result) {
  EXPECT_EQ(reference.r_extended.rows(), result.r_extended.rows());
  EXPECT_EQ(reference.s_extended.rows(), result.s_extended.rows());
  ::eid::testing::ExpectProvenanceEqual(reference.r_traces, result.r_traces);
  ::eid::testing::ExpectProvenanceEqual(reference.s_traces, result.s_traces);
  EXPECT_EQ(reference.matching.pairs(), result.matching.pairs());
  EXPECT_EQ(reference.negative.table.pairs(), result.negative.table.pairs());
  ASSERT_EQ(result.negative.table.certificates().size(),
            result.negative.table.size());
  EXPECT_EQ(reference.negative.table.certificates(),
            result.negative.table.certificates());
  EXPECT_EQ(reference.uniqueness, result.uniqueness);
  EXPECT_EQ(reference.consistency, result.consistency);
  EXPECT_EQ(reference.partition.matched, result.partition.matched);
  EXPECT_EQ(reference.partition.non_matched, result.partition.non_matched);
  EXPECT_EQ(reference.partition.undetermined, result.partition.undetermined);
  EXPECT_EQ(reference.partition.total, result.partition.total);
}

/// Deterministic stage counters agree between two engine runs (wall and
/// compile times and columnar timings may differ).
void ExpectSameCounters(const IdentificationResult& a,
                        const IdentificationResult& b) {
  ASSERT_EQ(a.stats.stages().size(), b.stats.stages().size());
  for (size_t i = 0; i < a.stats.stages().size(); ++i) {
    const exec::StageStats& sa = a.stats.stages()[i];
    const exec::StageStats& sb = b.stats.stages()[i];
    EXPECT_EQ(sa.stage, sb.stage);
    EXPECT_EQ(sa.items, sb.items) << sa.stage;
    EXPECT_EQ(sa.values_derived, sb.values_derived) << sa.stage;
    EXPECT_EQ(sa.candidate_pairs, sb.candidate_pairs) << sa.stage;
    EXPECT_EQ(sa.cross_product, sb.cross_product) << sa.stage;
    EXPECT_EQ(sa.rule_evals, sb.rule_evals) << sa.stage;
    EXPECT_EQ(sa.feature_cache_hits, sb.feature_cache_hits) << sa.stage;
  }
}

/// Runs the reference once, then the engine at threads 1 and 8, and
/// expects every engine result to equal the reference's. Returns the
/// reference result.
IdentificationResult ExpectEngineMatchesReference(
    IdentifierConfig config, const Relation& r, const Relation& s) {
  Result<IdentificationResult> reference = reference::Identify(config, r, s);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  if (!reference.ok()) return IdentificationResult();
  std::optional<IdentificationResult> serial;
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.matcher_options.threads = threads;
    Result<IdentificationResult> result =
        EntityIdentifier(config).Identify(r, s);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    ExpectIdentical(*reference, *result);
    if (serial.has_value()) {
      ExpectSameCounters(*serial, *result);
    } else {
      serial = std::move(result).value();
    }
  }
  return std::move(reference).value();
}

std::string ModeName(DerivationMode mode) {
  return mode == DerivationMode::kExhaustive ? "exhaustive" : "first_match";
}

std::string PolicyName(ConflictPolicy policy) {
  switch (policy) {
    case ConflictPolicy::kError: return "error";
    case ConflictPolicy::kKeepFirst: return "keep_first";
    case ConflictPolicy::kNullOut: return "null_out";
  }
  return "?";
}

class DifferentialTest : public ::testing::TestWithParam<double> {};

TEST_P(DifferentialTest, CompiledIdentifyMatchesInterpreter) {
  GeneratedWorld world = MakeWorld(GetParam(), /*seed=*/11);
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    SCOPED_TRACE(ModeName(mode));
    IdentifierConfig config = WorldConfig(world);
    SetDerivation(&config, mode, ConflictPolicy::kError);
    IdentificationResult reference =
        ExpectEngineMatchesReference(config, world.r, world.s);
    // Sanity: the run exercises all three regions.
    EXPECT_GT(reference.matching.size(), 0u);
    EXPECT_GT(reference.negative.table.size(), 0u);
    EXPECT_GT(reference.partition.undetermined, 0u);
  }
}

TEST_P(DifferentialTest, StagedIdentifyMatchesExhaustiveOracle) {
  GeneratedWorld world = MakeWorld(GetParam(), /*seed=*/13);
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    SCOPED_TRACE(ModeName(mode));
    IdentifierConfig config = WorldConfig(world);
    SetDerivation(&config, mode, ConflictPolicy::kError);
    IdentificationResult reference =
        ExpectEngineMatchesReference(config, world.r, world.s);
    EXPECT_GT(reference.matching.size(), 0u);
    EXPECT_GT(reference.negative.table.size(), 0u);
    // The point of the staged sweep: on this blocked world it evaluates
    // strictly fewer identity candidates than the cross product the
    // reference sweeps.
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             EntityIdentifier(config).Identify(world.r,
                                                               world.s));
    const exec::StageStats* identity = result.stats.Find("identity_rules");
    ASSERT_NE(identity, nullptr);
    EXPECT_LT(identity->candidate_pairs, identity->cross_product);
  }
}

INSTANTIATE_TEST_SUITE_P(Coverage, DifferentialTest,
                         ::testing::Values(1.0, 0.6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param == 1.0 ? "full_coverage"
                                                    : "partial_coverage";
                         });

/// Injects an ILFD contradicting the generated street -> city rules, so
/// exhaustive derivation hits real conflicts on the R side (R carries
/// street; full coverage guarantees a competing city rule for the chosen
/// street value).
IlfdSet InjectConflict(const GeneratedWorld& world) {
  std::optional<size_t> street = world.r.schema().IndexOf("street");
  EID_CHECK(street.has_value());
  Value v;
  for (const Row& row : world.r.rows()) {
    if (!row[*street].is_null()) {
      v = row[*street];
      break;
    }
  }
  EID_CHECK(!v.is_null());
  IlfdSet ilfds = world.ilfds;
  ilfds.Add(Ilfd::Implies({Atom{"street", v}},
                          Atom{"city", Value::String("Nowhere")}));
  return ilfds;
}

TEST(DifferentialConflictTest, PoliciesMatchInterpreter) {
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kNullOut}) {
    SCOPED_TRACE(PolicyName(policy));
    IdentifierConfig config = WorldConfig(world);
    config.ilfds = InjectConflict(world);
    SetDerivation(&config, DerivationMode::kExhaustive, policy);
    IdentificationResult reference =
        ExpectEngineMatchesReference(config, world.r, world.s);
    // The injected rule must actually conflict somewhere.
    EXPECT_GT(reference.r_traces.conflicts().size(), 0u);
  }
}

TEST(DifferentialConflictTest, ErrorPolicyProducesIdenticalStatus) {
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  IdentifierConfig config = WorldConfig(world);
  config.ilfds = InjectConflict(world);
  SetDerivation(&config, DerivationMode::kExhaustive, ConflictPolicy::kError);
  Result<IdentificationResult> reference =
      reference::Identify(config, world.r, world.s);
  ASSERT_FALSE(reference.ok());
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.matcher_options.threads = threads;
    Result<IdentificationResult> result =
        EntityIdentifier(config).Identify(world.r, world.s);
    ASSERT_FALSE(result.ok());
    // Same error, byte for byte — the message cites the conflicting
    // attribute, both values, both provenances and the tuple display.
    EXPECT_EQ(reference.status().ToString(), result.status().ToString());
  }
}

TEST(DifferentialConflictTest, FirstMatchCutOrderMatchesInterpreter) {
  // Under kFirstMatch the injected rule exercises the Prolog-cut rule
  // order instead of conflicting: declaration order decides, identically
  // in both engines.
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  IdentifierConfig config = WorldConfig(world);
  config.ilfds = InjectConflict(world);
  SetDerivation(&config, DerivationMode::kFirstMatch, ConflictPolicy::kError);
  ExpectEngineMatchesReference(config, world.r, world.s);
}

TEST(DifferentialConflictTest, StagedPoliciesMatchExhaustiveOracle) {
  // Without an extended key every derivable attribute is derived
  // (derive_all) and only the rules match, so the conflicting street ->
  // city derivations feed the rule sweeps directly; all three policies.
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  for (ConflictPolicy policy : {ConflictPolicy::kError,
                                ConflictPolicy::kKeepFirst,
                                ConflictPolicy::kNullOut}) {
    SCOPED_TRACE(PolicyName(policy));
    IdentifierConfig config = WorldConfig(world);
    config.extended_key.reset();
    config.ilfds = InjectConflict(world);
    SetDerivation(&config, DerivationMode::kExhaustive, policy);
    if (policy == ConflictPolicy::kError) {
      Result<IdentificationResult> reference =
          reference::Identify(config, world.r, world.s);
      ASSERT_FALSE(reference.ok());
      Result<IdentificationResult> result =
          EntityIdentifier(config).Identify(world.r, world.s);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(reference.status().ToString(), result.status().ToString());
      continue;
    }
    IdentificationResult reference =
        ExpectEngineMatchesReference(config, world.r, world.s);
    EXPECT_GT(reference.matching.size(), 0u);
    EXPECT_GT(reference.r_traces.conflicts().size(), 0u);
  }
}

Relation EmptyLike(const Relation& model) {
  Relation out(model.name(), model.schema());
  for (const KeyDef& k : model.keys()) {
    std::vector<std::string> names;
    for (size_t i : k.attribute_indices) {
      names.push_back(model.schema().attribute(i).name);
    }
    EXPECT_TRUE(out.DeclareKey(names).ok());
  }
  return out;
}

/// Loads every world row into an incremental session, deletes every
/// `r_step`-th R id and `s_step`-th S id, and expects the session to
/// equal eid::reference::Identify over the live tuples in id order:
/// extended rows, MT rows and order, partition, verdict, matches and
/// every pair's decision.
void ExpectSessionMatchesReference(const GeneratedWorld& world,
                                   const IdentifierConfig& config,
                                   size_t r_step, size_t s_step) {
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(world.r),
                                    EmptyLike(world.s)));
  for (const Row& row : world.r.rows()) EID_ASSERT_OK(inc.InsertR(row).status());
  for (const Row& row : world.s.rows()) EID_ASSERT_OK(inc.InsertS(row).status());
  // Churn: delete a spread of tuples from both sides; the survivors, in
  // id order, are the reference's input.
  Relation live_r = EmptyLike(world.r);
  Relation live_s = EmptyLike(world.s);
  std::vector<size_t> r_ids, s_ids;
  for (size_t id = 0; id < world.r.size(); ++id) {
    if (id % r_step == 0) {
      EID_ASSERT_OK(inc.DeleteR(id));
    } else {
      EID_ASSERT_OK(live_r.Insert(world.r.row(id)));
      r_ids.push_back(id);
    }
  }
  for (size_t id = 0; id < world.s.size(); ++id) {
    if (id % s_step == 0) {
      EID_ASSERT_OK(inc.DeleteS(id));
    } else {
      EID_ASSERT_OK(live_s.Insert(world.s.row(id)));
      s_ids.push_back(id);
    }
  }
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult ref,
                           reference::Identify(config, live_r, live_s));
  EXPECT_EQ(inc.r_size(), r_ids.size());
  EXPECT_EQ(inc.s_size(), s_ids.size());
  EXPECT_EQ(inc.LiveR().rows(), ref.r_extended.rows());
  EXPECT_EQ(inc.LiveS().rows(), ref.s_extended.rows());
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation ref_mt, ref.MatchingRelation());
  EXPECT_EQ(mt.rows(), ref_mt.rows());
  EXPECT_GT(mt.size(), 0u);
  const PairPartition p = inc.Partition();
  EXPECT_EQ(p.matched, ref.partition.matched);
  EXPECT_EQ(p.non_matched, ref.partition.non_matched);
  EXPECT_EQ(p.undetermined, ref.partition.undetermined);
  EXPECT_EQ(p.total, ref.partition.total);
  EXPECT_EQ(inc.Uniqueness().ok(), ref.uniqueness.ok());
  for (size_t i = 0; i < r_ids.size(); ++i) {
    const std::optional<size_t> want = ref.matching.MatchOfR(i);
    EXPECT_EQ(inc.MatchOfR(r_ids[i]),
              want.has_value() ? std::optional<size_t>(s_ids[*want])
                               : std::nullopt)
        << "r_id " << r_ids[i];
    for (size_t j = 0; j < s_ids.size(); ++j) {
      EXPECT_EQ(inc.Decide(r_ids[i], s_ids[j]), ref.Decide(i, j))
          << "r_id " << r_ids[i] << " s_id " << s_ids[j];
    }
  }
  for (size_t j = 0; j < s_ids.size(); ++j) {
    const std::optional<size_t> want = ref.matching.MatchOfS(j);
    EXPECT_EQ(inc.MatchOfS(s_ids[j]),
              want.has_value() ? std::optional<size_t>(r_ids[*want])
                               : std::nullopt)
        << "s_id " << s_ids[j];
  }
}

TEST(DifferentialIncrementalTest, CompiledMatchesInterpreterUnderUpdates) {
  GeneratedWorld world = MakeWorld(/*coverage=*/0.6, /*seed=*/31);
  IdentifierConfig config = WorldConfig(world);
  config.matcher_options.threads = 1;
  ExpectSessionMatchesReference(world, config, /*r_step=*/7, /*s_step=*/5);
}

TEST(DifferentialIncrementalTest, StagedMatchesExhaustiveUnderUpdates) {
  // The per-insert sweep (id buckets over the other side) under a
  // different world and deletion spread.
  GeneratedWorld world = MakeWorld(/*coverage=*/0.6, /*seed=*/37);
  IdentifierConfig config = WorldConfig(world);
  config.matcher_options.threads = 1;
  ExpectSessionMatchesReference(world, config, /*r_step=*/5, /*s_step=*/7);
}

// Signed zeros and NaNs. Double equality is the bit pattern everywhere:
// the engine's dictionary and id columns, the reference's CompareValues,
// the incremental session's world and every key fingerprint. R
// holds +0.0 and a NaN, S holds -0.0 and a NaN with the same bits, so
// only the NaN rows hold equal values.
struct SpecialDoubles {
  Relation r;
  Relation s;
  IdentifierConfig config;
};

SpecialDoubles SpecialDoublesWorld() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Schema schema({Attribute{"x", ValueType::kDouble},
                       Attribute{"tag", ValueType::kString}});
  SpecialDoubles w{Relation("R", schema), Relation("S", schema), {}};
  EXPECT_TRUE(w.r.Insert(Row{Value::Double(0.0), Value::Str("a")}).ok());
  EXPECT_TRUE(w.r.Insert(Row{Value::Double(nan), Value::Str("b")}).ok());
  EXPECT_TRUE(w.s.Insert(Row{Value::Double(-0.0), Value::Str("a")}).ok());
  EXPECT_TRUE(w.s.Insert(Row{Value::Double(nan), Value::Str("b")}).ok());
  w.config.correspondence = AttributeCorrespondence::Identity(w.r, w.s);
  return w;
}

TEST(DifferentialSpecialDoubleTest, IdentityRuleEqualsReference) {
  SpecialDoubles w = SpecialDoublesWorld();
  EID_ASSERT_OK_AND_ASSIGN(IdentityRule same_x,
                           ParseIdentityRule("same_x", "e1.x = e2.x"));
  w.config.identity_rules.push_back(same_x);
  const IdentificationResult ref =
      ExpectEngineMatchesReference(w.config, w.r, w.s);
  EXPECT_EQ(ref.matching.pairs(), (std::vector<TuplePair>{{1, 1}}));
}

TEST(DifferentialSpecialDoubleTest, DistinctnessRulesEqualReference) {
  // Rule 0 compares the two cells; rule 1 is a Proposition 1 shape whose
  // direct orientation takes the generator's `s.x != constant` drain.
  SpecialDoubles w = SpecialDoublesWorld();
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule other_x,
      ParseDistinctnessRule("other_x", "e1.x != e2.x & e1.tag = e2.tag"));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule not_zero,
      ParseDistinctnessRule("not_zero", "e1.tag = \"a\" & e2.x != 0.0"));
  w.config.distinctness_rules = {other_x, not_zero};
  const IdentificationResult ref =
      ExpectEngineMatchesReference(w.config, w.r, w.s);
  EXPECT_EQ(ref.negative.table.pairs(),
            (std::vector<TuplePair>{{0, 0}, {0, 1}, {1, 0}}));
  EXPECT_EQ(ref.negative.table.certificates(),
            (std::vector<uint32_t>{0, 2, 3}));
}

TEST(DifferentialSpecialDoubleTest, KeyJoinAndSessionEqualReference) {
  SpecialDoubles w = SpecialDoublesWorld();
  w.config.extended_key = ExtendedKey({"x"});
  EID_ASSERT_OK_AND_ASSIGN(IdentityRule same_x,
                           ParseIdentityRule("same_x", "e1.x = e2.x"));
  w.config.identity_rules.push_back(same_x);
  const IdentificationResult ref =
      ExpectEngineMatchesReference(w.config, w.r, w.s);
  EXPECT_EQ(ref.matching.pairs(), (std::vector<TuplePair>{{1, 1}}));

  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(w.config, EmptyLike(w.r), EmptyLike(w.s)));
  for (const Row& row : w.r.rows()) EID_ASSERT_OK(inc.InsertR(row).status());
  for (const Row& row : w.s.rows()) EID_ASSERT_OK(inc.InsertS(row).status());
  for (size_t i = 0; i < w.r.size(); ++i) {
    EXPECT_EQ(inc.MatchOfR(i), ref.matching.MatchOfR(i)) << "r " << i;
    for (size_t j = 0; j < w.s.size(); ++j) {
      EXPECT_EQ(inc.Decide(i, j), ref.Decide(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(inc.Partition().matched, ref.partition.matched);
}

TEST(DifferentialRowPartTest, RowOnlyOrderingConjunctEqualsReference) {
  // `e1.rating > 3` reads only the r row and no constant filters the r
  // side, so the sweep evaluates it for every row up front, over the
  // rows' Values (an ordering conjunct has no id fast path).
  const Schema schema({Attribute{"name", ValueType::kString},
                       Attribute{"rating", ValueType::kInt}});
  Relation r("R", schema);
  Relation s("S", schema);
  const std::vector<std::pair<const char*, int64_t>> r_rows = {
      {"anna", 5}, {"bob", 2}, {"carl", 4}, {"dana", 3}};
  const std::vector<std::pair<const char*, int64_t>> s_rows = {
      {"anna", 5}, {"bob", 2}, {"carl", 1}, {"erik", 4}};
  for (const auto& [name, rating] : r_rows) {
    EID_ASSERT_OK(r.Insert(Row{Value::Str(name), Value::Int(rating)}));
  }
  for (const auto& [name, rating] : s_rows) {
    EID_ASSERT_OK(s.Insert(Row{Value::Str(name), Value::Int(rating)}));
  }
  EID_ASSERT_OK(r.Insert(Row{Value::Str("erik"), Value::Null()}));
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule good,
      ParseIdentityRule(
          "good", "e1.name = e2.name & e1.rating = e2.rating & e1.rating > 3"));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rival,
      ParseDistinctnessRule("rival", "e1.name = e2.name & e1.rating > 3"));
  config.identity_rules.push_back(good);
  config.distinctness_rules.push_back(rival);
  const IdentificationResult ref = ExpectEngineMatchesReference(config, r, s);
  EXPECT_EQ(ref.matching.pairs(), (std::vector<TuplePair>{{0, 0}}));
  // Direct: anna and carl (rated above 3 in R); flipped: anna and erik
  // (rated above 3 in S). anna x anna is certified by the direct one.
  EXPECT_EQ(ref.negative.table.pairs(),
            (std::vector<TuplePair>{{0, 0}, {2, 2}, {4, 3}}));
  EXPECT_EQ(ref.negative.table.certificates(),
            (std::vector<uint32_t>{0, 0, 1}));

  // The same rows replayed into a session, which reads the ordering
  // conjunct's values through its world's dictionary. carl (R id 2) is
  // deleted and re-inserted as id 5, so the live R rows in id order are
  // anna, bob, dana, erik, carl.
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(r), EmptyLike(s)));
  for (const Row& row : r.rows()) EID_ASSERT_OK(inc.InsertR(row).status());
  for (const Row& row : s.rows()) EID_ASSERT_OK(inc.InsertS(row).status());
  EID_ASSERT_OK(inc.DeleteR(2));
  EID_ASSERT_OK_AND_ASSIGN(size_t carl, inc.InsertR(r.row(2)));
  EXPECT_EQ(carl, 5u);
  const std::vector<size_t> r_ids = {0, 1, 3, 4, 5};
  Relation live_r = EmptyLike(r);
  for (size_t row : {0, 1, 3, 4, 2}) EID_ASSERT_OK(live_r.Insert(r.row(row)));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult live,
                           reference::Identify(config, live_r, s));
  for (size_t i = 0; i < r_ids.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      EXPECT_EQ(inc.Decide(r_ids[i], j), live.Decide(i, j))
          << "r_id " << r_ids[i] << " s_id " << j;
    }
  }
  EID_ASSERT_OK_AND_ASSIGN(Relation mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation live_mt, live.MatchingRelation());
  EXPECT_EQ(mt.rows(), live_mt.rows());
  const PairPartition p = inc.Partition();
  EXPECT_EQ(p.matched, live.partition.matched);
  EXPECT_EQ(p.non_matched, live.partition.non_matched);
  EXPECT_EQ(p.undetermined, live.partition.undetermined);
  EXPECT_EQ(p.total, live.partition.total);
  EXPECT_EQ(p.non_matched, 3u);
}

}  // namespace
}  // namespace eid
