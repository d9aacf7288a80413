// The engine's central parallel contract: `Identify` produces an
// identical IdentificationResult — extended relations, derivation
// traces, MT/NMT contents and order, evidence, soundness verdicts,
// partition counts, and every deterministic stage counter — for any
// thread count. Run on the workload generator's synthetic relations so
// the indexed rule sweeps, parallel extension and key-join probe all see
// nontrivial inputs. This test is the one the tsan CMake preset runs to
// prove the pool race-free.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eid/identifier.h"
#include "workload/fixtures.h"
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

IdentifierConfig WorldConfig(const GeneratedWorld& world, int threads) {
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  // An identity rule with an equality join (indexed path) and one with
  // only constant equalities (filtered-scan fallback path).
  config.identity_rules.push_back(
      IdentityRule::KeyEquivalence("key_eq", {"name", "speciality"}));
  EID_CHECK(config.identity_rules.back().Validate().ok());
  Result<IdentityRule> const_rule = ParseIdentityRule(
      "const_pair",
      "e1.speciality = \"Speciality0\" & e2.speciality = \"Speciality0\"");
  EID_CHECK(const_rule.ok());
  config.identity_rules.push_back(*const_rule);
  // An explicit distinctness rule on top of the Proposition 1 rules
  // induced from every generated ILFD.
  Result<DistinctnessRule> distinct = ParseDistinctnessRule(
      "cuisine_clash", "e1.cuisine = \"Cuisine0\" & e2.cuisine = \"Cuisine1\"");
  EID_CHECK(distinct.ok());
  config.distinctness_rules.push_back(*distinct);
  config.distinctness_from_ilfds = true;
  config.matcher_options.threads = threads;
  return config;
}

/// NMT pairs in order, and every pair's (rule, orientation) certificate:
/// the certificate column must stay aligned with the pair column and
/// agree entry for entry.
void ExpectSameNegative(const NegativeResult& a, const NegativeResult& b) {
  EXPECT_EQ(a.table.pairs(), b.table.pairs());
  const std::vector<uint32_t> a_evidence = a.table.certificates();
  const std::vector<uint32_t> b_evidence = b.table.certificates();
  ASSERT_EQ(a_evidence.size(), a.table.size());
  ASSERT_EQ(b_evidence.size(), b.table.size());
  ASSERT_EQ(a_evidence.size(), b_evidence.size());
  for (size_t i = 0; i < a_evidence.size(); ++i) {
    EXPECT_EQ(a_evidence[i], b_evidence[i]) << "NMT pair " << i;
  }
}

void ExpectIdentical(const IdentificationResult& a,
                     const IdentificationResult& b, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // Extended relations, row for row.
  EXPECT_EQ(a.r_extended.rows(), b.r_extended.rows());
  EXPECT_EQ(a.s_extended.rows(), b.s_extended.rows());
  ::eid::testing::ExpectProvenanceEqual(a.r_traces, b.r_traces);
  ::eid::testing::ExpectProvenanceEqual(a.s_traces, b.s_traces);
  // MT / NMT contents *and order*.
  EXPECT_EQ(a.matching.pairs(), b.matching.pairs());
  ExpectSameNegative(a.negative, b.negative);
  // Verdicts (messages included — they cite specific tuples, so any
  // ordering drift would show) and partition.
  EXPECT_EQ(a.uniqueness, b.uniqueness);
  EXPECT_EQ(a.consistency, b.consistency);
  EXPECT_EQ(a.partition.matched, b.partition.matched);
  EXPECT_EQ(a.partition.non_matched, b.partition.non_matched);
  EXPECT_EQ(a.partition.undetermined, b.partition.undetermined);
  EXPECT_EQ(a.partition.total, b.partition.total);
  // Deterministic stage counters (everything but wall_ms).
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

class DeterminismTest : public ::testing::TestWithParam<double> {};

TEST_P(DeterminismTest, IdentifyIsThreadCountInvariant) {
  GeneratedWorld world = MakeWorld(GetParam(), /*seed=*/7);
  EntityIdentifier serial(WorldConfig(world, /*threads=*/1));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           serial.Identify(world.r, world.s));
  // Sanity: the run exercises all three regions.
  EXPECT_GT(reference.matching.size(), 0u);
  EXPECT_GT(reference.negative.table.size(), 0u);
  for (int threads : {2, 8}) {
    EntityIdentifier parallel(WorldConfig(world, threads));
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             parallel.Identify(world.r, world.s));
    ExpectIdentical(reference, result, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Coverage, DeterminismTest,
                         ::testing::Values(1.0, 0.6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param == 1.0 ? "full_coverage"
                                                    : "partial_coverage";
                         });

TEST(DeterminismTest, PaperFixturesThreadCountInvariant) {
  // The paper's Example 3 restaurant fixtures: small, but every stage
  // (extension, key join, Prop-1 distinctness) participates.
  IdentifierConfig config;
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  config.matcher_options.threads = 1;
  EntityIdentifier serial(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           serial.Identify(r, s));
  for (int threads : {2, 8}) {
    config.matcher_options.threads = threads;
    EntityIdentifier parallel(config);
    EID_ASSERT_OK_AND_ASSIGN(IdentificationResult result,
                             parallel.Identify(r, s));
    ExpectIdentical(reference, result, threads);
  }
}

}  // namespace
}  // namespace eid
