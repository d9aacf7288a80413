// Differential property test for the compiled execution path: with
// `MatcherOptions::compile` on, `Identify` must produce an
// IdentificationResult bit-identical to the per-tuple interpreter —
// extended rows, derivation traces with provenance, MT/NMT contents and
// order, evidence, verdicts, partition and every deterministic stage
// counter — across DerivationMode × ConflictPolicy × thread counts, on
// generated worlds and on worlds with injected ILFD conflicts. The same
// contract is checked for IncrementalIdentifier under inserts and
// deletes. This test runs under the tsan/asan presets (scripts/check.sh).

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eid/identifier.h"
#include "eid/incremental.h"
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
IdentifierConfig WorldConfig(const GeneratedWorld& world, int threads,
                             bool compile) {
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
  config.matcher_options.threads = threads;
  config.matcher_options.compile = compile;
  return config;
}

void ExpectDerivationsEqual(const std::vector<Derivation>& a,
                            const std::vector<Derivation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].derived, b[i].derived) << "tuple " << i;
    ASSERT_EQ(a[i].steps.size(), b[i].steps.size()) << "tuple " << i;
    for (size_t k = 0; k < a[i].steps.size(); ++k) {
      EXPECT_EQ(a[i].steps[k].attribute, b[i].steps[k].attribute);
      EXPECT_EQ(a[i].steps[k].value, b[i].steps[k].value);
      EXPECT_EQ(a[i].steps[k].ilfd_index, b[i].steps[k].ilfd_index);
    }
    ASSERT_EQ(a[i].conflicts.size(), b[i].conflicts.size()) << "tuple " << i;
    for (size_t k = 0; k < a[i].conflicts.size(); ++k) {
      EXPECT_EQ(a[i].conflicts[k].attribute, b[i].conflicts[k].attribute);
      EXPECT_EQ(a[i].conflicts[k].first_value, b[i].conflicts[k].first_value);
      EXPECT_EQ(a[i].conflicts[k].second_value,
                b[i].conflicts[k].second_value);
      EXPECT_EQ(a[i].conflicts[k].first_ilfd, b[i].conflicts[k].first_ilfd);
      EXPECT_EQ(a[i].conflicts[k].second_ilfd, b[i].conflicts[k].second_ilfd);
    }
  }
}

/// NMT pairs in order, and every pair's (rule, orientation) certificate:
/// the certificate column must stay aligned with the pair column and
/// agree entry for entry.
void ExpectSameNegative(const NegativeResult& a, const NegativeResult& b) {
  EXPECT_EQ(a.table.pairs(), b.table.pairs());
  ASSERT_EQ(a.evidence.size(), a.table.size());
  ASSERT_EQ(b.evidence.size(), b.table.size());
  ASSERT_EQ(a.evidence.size(), b.evidence.size());
  for (size_t i = 0; i < a.evidence.size(); ++i) {
    EXPECT_EQ(a.evidence[i], b.evidence[i]) << "NMT pair " << i;
  }
}

/// `a` is the interpreter run, `b` the compiled run.
void ExpectIdentical(const IdentificationResult& a,
                     const IdentificationResult& b) {
  EXPECT_EQ(a.r_extended.rows(), b.r_extended.rows());
  EXPECT_EQ(a.s_extended.rows(), b.s_extended.rows());
  ExpectDerivationsEqual(a.r_traces, b.r_traces);
  ExpectDerivationsEqual(a.s_traces, b.s_traces);
  EXPECT_EQ(a.matching.pairs(), b.matching.pairs());
  ExpectSameNegative(a.negative, b.negative);
  EXPECT_EQ(a.uniqueness, b.uniqueness);
  EXPECT_EQ(a.consistency, b.consistency);
  EXPECT_EQ(a.partition.matched, b.partition.matched);
  EXPECT_EQ(a.partition.non_matched, b.partition.non_matched);
  EXPECT_EQ(a.partition.undetermined, b.partition.undetermined);
  EXPECT_EQ(a.partition.total, b.partition.total);
  // Deterministic stage counters must agree between the two engines (the
  // compiled-only compile_ms / memo_* / interner fields and wall_ms are
  // the only intentional differences).
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
  }
}

/// Like ExpectIdentical minus the stage-counter block: the staged and
/// exhaustive engines must agree on every result bit while intentionally
/// differing in candidate_pairs / rule_evals — that gap *is* the
/// optimization being verified.
void ExpectSameOutcome(const IdentificationResult& a,
                       const IdentificationResult& b) {
  EXPECT_EQ(a.r_extended.rows(), b.r_extended.rows());
  EXPECT_EQ(a.s_extended.rows(), b.s_extended.rows());
  ExpectDerivationsEqual(a.r_traces, b.r_traces);
  ExpectDerivationsEqual(a.s_traces, b.s_traces);
  EXPECT_EQ(a.matching.pairs(), b.matching.pairs());
  ExpectSameNegative(a.negative, b.negative);
  EXPECT_EQ(a.uniqueness, b.uniqueness);
  EXPECT_EQ(a.consistency, b.consistency);
  EXPECT_EQ(a.partition.matched, b.partition.matched);
  EXPECT_EQ(a.partition.non_matched, b.partition.non_matched);
  EXPECT_EQ(a.partition.undetermined, b.partition.undetermined);
  EXPECT_EQ(a.partition.total, b.partition.total);
}

void SetDerivation(IdentifierConfig* config, DerivationMode mode,
                   ConflictPolicy policy) {
  config->matcher_options.extension.derivation.mode = mode;
  config->matcher_options.extension.derivation.conflict_policy = policy;
}

class DifferentialTest : public ::testing::TestWithParam<double> {};

TEST_P(DifferentialTest, CompiledIdentifyMatchesInterpreter) {
  GeneratedWorld world = MakeWorld(GetParam(), /*seed=*/11);
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(mode == DerivationMode::kExhaustive
                                   ? "exhaustive"
                                   : "first_match") +
                   " threads=" + std::to_string(threads));
      IdentifierConfig interp = WorldConfig(world, threads, /*compile=*/false);
      IdentifierConfig comp = WorldConfig(world, threads, /*compile=*/true);
      SetDerivation(&interp, mode, ConflictPolicy::kError);
      SetDerivation(&comp, mode, ConflictPolicy::kError);
      EntityIdentifier interpreter(interp);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                               interpreter.Identify(world.r, world.s));
      // Sanity: the run exercises all three regions.
      EXPECT_GT(reference.matching.size(), 0u);
      EXPECT_GT(reference.negative.table.size(), 0u);
      EntityIdentifier compiled(comp);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                               compiled.Identify(world.r, world.s));
      ExpectIdentical(reference, result);
    }
  }
}

TEST_P(DifferentialTest, StagedIdentifyMatchesExhaustiveOracle) {
  GeneratedWorld world = MakeWorld(GetParam(), /*seed=*/13);
  for (bool compile : {false, true}) {
    for (DerivationMode mode :
         {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(std::string(compile ? "compiled" : "interpreted") +
                     (mode == DerivationMode::kExhaustive ? " exhaustive"
                                                          : " first_match") +
                     " threads=" + std::to_string(threads));
        IdentifierConfig oracle_cfg = WorldConfig(world, threads, compile);
        IdentifierConfig staged_cfg = WorldConfig(world, threads, compile);
        oracle_cfg.matcher_options.staged = false;
        staged_cfg.matcher_options.staged = true;
        SetDerivation(&oracle_cfg, mode, ConflictPolicy::kError);
        SetDerivation(&staged_cfg, mode, ConflictPolicy::kError);
        EntityIdentifier oracle(oracle_cfg);
        EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                                 oracle.Identify(world.r, world.s));
        EXPECT_GT(reference.matching.size(), 0u);
        EXPECT_GT(reference.negative.table.size(), 0u);
        EntityIdentifier staged(staged_cfg);
        EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                                 staged.Identify(world.r, world.s));
        ExpectSameOutcome(reference, result);
        // The point of the staged pipeline: on this blocked world it must
        // evaluate strictly fewer identity candidates than the cross
        // product the oracle sweeps.
        for (const exec::StageStats& stage : result.stats.stages()) {
          if (stage.stage == "identity_rules") {
            EXPECT_LT(stage.candidate_pairs, stage.cross_product);
          }
        }
      }
    }
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
  IlfdSet conflicting = InjectConflict(world);
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kNullOut}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(policy == ConflictPolicy::kKeepFirst
                                   ? "keep_first"
                                   : "null_out") +
                   " threads=" + std::to_string(threads));
      IdentifierConfig interp = WorldConfig(world, threads, /*compile=*/false);
      IdentifierConfig comp = WorldConfig(world, threads, /*compile=*/true);
      interp.ilfds = conflicting;
      comp.ilfds = conflicting;
      SetDerivation(&interp, DerivationMode::kExhaustive, policy);
      SetDerivation(&comp, DerivationMode::kExhaustive, policy);
      EntityIdentifier interpreter(interp);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                               interpreter.Identify(world.r, world.s));
      // The injected rule must actually conflict somewhere.
      size_t conflicts = 0;
      for (const Derivation& d : reference.r_traces) {
        conflicts += d.conflicts.size();
      }
      EXPECT_GT(conflicts, 0u);
      EntityIdentifier compiled(comp);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                               compiled.Identify(world.r, world.s));
      ExpectIdentical(reference, result);
    }
  }
}

TEST(DifferentialConflictTest, ErrorPolicyProducesIdenticalStatus) {
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  IlfdSet conflicting = InjectConflict(world);
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IdentifierConfig interp = WorldConfig(world, threads, /*compile=*/false);
    IdentifierConfig comp = WorldConfig(world, threads, /*compile=*/true);
    interp.ilfds = conflicting;
    comp.ilfds = conflicting;
    SetDerivation(&interp, DerivationMode::kExhaustive,
                  ConflictPolicy::kError);
    SetDerivation(&comp, DerivationMode::kExhaustive, ConflictPolicy::kError);
    EntityIdentifier interpreter(interp);
    Result<IdentificationResult> reference =
        interpreter.Identify(world.r, world.s);
    ASSERT_FALSE(reference.ok());
    EntityIdentifier compiled(comp);
    Result<IdentificationResult> result = compiled.Identify(world.r, world.s);
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
  IlfdSet conflicting = InjectConflict(world);
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IdentifierConfig interp = WorldConfig(world, threads, /*compile=*/false);
    IdentifierConfig comp = WorldConfig(world, threads, /*compile=*/true);
    interp.ilfds = conflicting;
    comp.ilfds = conflicting;
    SetDerivation(&interp, DerivationMode::kFirstMatch,
                  ConflictPolicy::kError);
    SetDerivation(&comp, DerivationMode::kFirstMatch, ConflictPolicy::kError);
    EntityIdentifier interpreter(interp);
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                             interpreter.Identify(world.r, world.s));
    EntityIdentifier compiled(comp);
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             compiled.Identify(world.r, world.s));
    ExpectIdentical(reference, result);
  }
}

TEST(DifferentialConflictTest, StagedPoliciesMatchExhaustiveOracle) {
  GeneratedWorld world = MakeWorld(/*coverage=*/1.0, /*seed=*/23);
  IlfdSet conflicting = InjectConflict(world);
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kNullOut}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(policy == ConflictPolicy::kKeepFirst
                                   ? "keep_first"
                                   : "null_out") +
                   " threads=" + std::to_string(threads));
      IdentifierConfig oracle_cfg =
          WorldConfig(world, threads, /*compile=*/true);
      IdentifierConfig staged_cfg =
          WorldConfig(world, threads, /*compile=*/true);
      oracle_cfg.ilfds = conflicting;
      staged_cfg.ilfds = conflicting;
      oracle_cfg.matcher_options.staged = false;
      staged_cfg.matcher_options.staged = true;
      SetDerivation(&oracle_cfg, DerivationMode::kExhaustive, policy);
      SetDerivation(&staged_cfg, DerivationMode::kExhaustive, policy);
      EntityIdentifier oracle(oracle_cfg);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                               oracle.Identify(world.r, world.s));
      EntityIdentifier staged(staged_cfg);
      EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                               staged.Identify(world.r, world.s));
      ExpectSameOutcome(reference, result);
    }
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

TEST(DifferentialIncrementalTest, CompiledMatchesInterpreterUnderUpdates) {
  GeneratedWorld world = MakeWorld(/*coverage=*/0.6, /*seed=*/31);
  IdentifierConfig interp = WorldConfig(world, /*threads=*/1,
                                        /*compile=*/false);
  IdentifierConfig comp = WorldConfig(world, /*threads=*/1, /*compile=*/true);
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier a,
      IncrementalIdentifier::Create(interp, EmptyLike(world.r),
                                    EmptyLike(world.s)));
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier b,
      IncrementalIdentifier::Create(comp, EmptyLike(world.r),
                                    EmptyLike(world.s)));
  std::vector<size_t> r_ids, s_ids;
  for (const Row& row : world.r.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id_a, a.InsertR(row));
    EID_ASSERT_OK_AND_ASSIGN(size_t id_b, b.InsertR(row));
    EXPECT_EQ(id_a, id_b);
    r_ids.push_back(id_a);
  }
  for (const Row& row : world.s.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id_a, a.InsertS(row));
    EID_ASSERT_OK_AND_ASSIGN(size_t id_b, b.InsertS(row));
    EXPECT_EQ(id_a, id_b);
    s_ids.push_back(id_a);
  }
  // Churn: delete a spread of tuples from both sides.
  for (size_t i = 0; i < r_ids.size(); i += 7) {
    EID_EXPECT_OK(a.DeleteR(r_ids[i]));
    EID_EXPECT_OK(b.DeleteR(r_ids[i]));
  }
  for (size_t i = 0; i < s_ids.size(); i += 5) {
    EID_EXPECT_OK(a.DeleteS(s_ids[i]));
    EID_EXPECT_OK(b.DeleteS(s_ids[i]));
  }
  EXPECT_EQ(a.r_size(), b.r_size());
  EXPECT_EQ(a.s_size(), b.s_size());
  // Extended state, matching table (contents and order), partition,
  // verdicts and per-pair decisions all agree.
  EXPECT_EQ(a.LiveR().rows(), b.LiveR().rows());
  EXPECT_EQ(a.LiveS().rows(), b.LiveS().rows());
  EID_ASSERT_OK_AND_ASSIGN(Relation mt_a, a.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation mt_b, b.MatchingRelation());
  EXPECT_EQ(mt_a.rows(), mt_b.rows());
  EXPECT_GT(mt_a.size(), 0u);
  EXPECT_EQ(a.Partition().matched, b.Partition().matched);
  EXPECT_EQ(a.Partition().non_matched, b.Partition().non_matched);
  EXPECT_EQ(a.Partition().undetermined, b.Partition().undetermined);
  EXPECT_EQ(a.Partition().total, b.Partition().total);
  EXPECT_EQ(a.Uniqueness(), b.Uniqueness());
  for (size_t r_id : r_ids) {
    EXPECT_EQ(a.MatchOfR(r_id), b.MatchOfR(r_id)) << "r_id " << r_id;
  }
  for (size_t s_id : s_ids) {
    EXPECT_EQ(a.MatchOfS(s_id), b.MatchOfS(s_id)) << "s_id " << s_id;
  }
  for (size_t r_id : {r_ids[1], r_ids[2], r_ids[3]}) {
    for (size_t s_id : {s_ids[1], s_ids[2], s_ids[3]}) {
      EXPECT_EQ(a.Decide(r_id, s_id), b.Decide(r_id, s_id));
    }
  }
}

TEST(DifferentialIncrementalTest, StagedMatchesExhaustiveUnderUpdates) {
  // The staged per-insert sweep (value-index buckets over the other
  // side) against the scan-everything oracle, under both residual
  // engines, through inserts and deletes.
  GeneratedWorld world = MakeWorld(/*coverage=*/0.6, /*seed=*/37);
  for (bool compile : {false, true}) {
    SCOPED_TRACE(compile ? "compiled" : "interpreted");
    IdentifierConfig oracle_cfg = WorldConfig(world, /*threads=*/1, compile);
    IdentifierConfig staged_cfg = WorldConfig(world, /*threads=*/1, compile);
    oracle_cfg.matcher_options.staged = false;
    staged_cfg.matcher_options.staged = true;
    EID_ASSERT_OK_AND_ASSIGN(
        IncrementalIdentifier a,
        IncrementalIdentifier::Create(oracle_cfg, EmptyLike(world.r),
                                      EmptyLike(world.s)));
    EID_ASSERT_OK_AND_ASSIGN(
        IncrementalIdentifier b,
        IncrementalIdentifier::Create(staged_cfg, EmptyLike(world.r),
                                      EmptyLike(world.s)));
    std::vector<size_t> r_ids, s_ids;
    for (const Row& row : world.r.rows()) {
      EID_ASSERT_OK_AND_ASSIGN(size_t id_a, a.InsertR(row));
      EID_ASSERT_OK_AND_ASSIGN(size_t id_b, b.InsertR(row));
      EXPECT_EQ(id_a, id_b);
      r_ids.push_back(id_a);
    }
    for (const Row& row : world.s.rows()) {
      EID_ASSERT_OK_AND_ASSIGN(size_t id_a, a.InsertS(row));
      EID_ASSERT_OK_AND_ASSIGN(size_t id_b, b.InsertS(row));
      EXPECT_EQ(id_a, id_b);
      s_ids.push_back(id_a);
    }
    for (size_t i = 0; i < r_ids.size(); i += 5) {
      EID_EXPECT_OK(a.DeleteR(r_ids[i]));
      EID_EXPECT_OK(b.DeleteR(r_ids[i]));
    }
    for (size_t i = 0; i < s_ids.size(); i += 7) {
      EID_EXPECT_OK(a.DeleteS(s_ids[i]));
      EID_EXPECT_OK(b.DeleteS(s_ids[i]));
    }
    EXPECT_EQ(a.r_size(), b.r_size());
    EXPECT_EQ(a.s_size(), b.s_size());
    EXPECT_EQ(a.LiveR().rows(), b.LiveR().rows());
    EXPECT_EQ(a.LiveS().rows(), b.LiveS().rows());
    EID_ASSERT_OK_AND_ASSIGN(Relation mt_a, a.MatchingRelation());
    EID_ASSERT_OK_AND_ASSIGN(Relation mt_b, b.MatchingRelation());
    EXPECT_EQ(mt_a.rows(), mt_b.rows());
    EXPECT_GT(mt_a.size(), 0u);
    EXPECT_EQ(a.Partition().matched, b.Partition().matched);
    EXPECT_EQ(a.Partition().non_matched, b.Partition().non_matched);
    EXPECT_EQ(a.Partition().undetermined, b.Partition().undetermined);
    EXPECT_EQ(a.Partition().total, b.Partition().total);
    EXPECT_EQ(a.Uniqueness(), b.Uniqueness());
    for (size_t r_id : r_ids) {
      EXPECT_EQ(a.MatchOfR(r_id), b.MatchOfR(r_id)) << "r_id " << r_id;
    }
    for (size_t s_id : s_ids) {
      EXPECT_EQ(a.MatchOfS(s_id), b.MatchOfS(s_id)) << "s_id " << s_id;
    }
  }
}

}  // namespace
}  // namespace eid
