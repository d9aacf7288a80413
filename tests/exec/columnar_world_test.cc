// Differential and id-space equivalence tests for the shared columnar
// interned world (exec/columnar_world.h, DESIGN.md §4g).
//
// ColumnarDifferentialTest: the columnar compiled engine must be
// bit-identical to eid::reference::BuildMatchingTable — extended rows,
// derivation traces, MT contents and order, uniqueness — across
// DerivationMode × threads {1, 8}, through both of its entry points:
// BuildMatchingTable in a world of its own (exhaustive_sweep) and the
// staged session of EntityIdentifier::Identify, which runs the matcher
// in the session's shared columnar world (staged). This is the
// matcher-level companion of tests/compile/differential_test.cc and runs
// under the tsan/asan presets (scripts/check.sh).
//
// ColumnarInternerTest: the pipeline's three interners — the AtomTable
// behind derivation closures, the ColumnarWorld dictionary, and a
// snapshot's saved dictionary — must agree on value identity: equal
// Values get equal ids, distinct Values distinct ids, and a
// snapshot-seeded world reproduces the exact ids (and column bytes) a
// fresh encode would assign.

#include "exec/columnar_world.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "eid/identifier.h"
#include "eid/matcher.h"
#include "eid/reference.h"
#include "logic/proposition.h"
#include "storage/snapshot.h"
#include "workload/generator.h"

namespace eid {
namespace {

GeneratedWorld MakeWorld(uint64_t seed) {
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
  gen.ilfd_coverage = 0.8;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  return std::move(world).value();
}

/// `a` is the reference's result, `b` the columnar compiled run.
void ExpectIdentical(const MatcherResult& a, const MatcherResult& b) {
  EXPECT_EQ(a.r_extension.extended.rows(), b.r_extension.extended.rows());
  EXPECT_EQ(a.s_extension.extended.rows(), b.s_extension.extended.rows());
  EXPECT_EQ(a.r_extension.added_attributes, b.r_extension.added_attributes);
  EXPECT_EQ(a.s_extension.added_attributes, b.s_extension.added_attributes);
  ::eid::testing::ExpectProvenanceEqual(a.r_extension.traces,
                                        b.r_extension.traces);
  ::eid::testing::ExpectProvenanceEqual(a.s_extension.traces,
                                        b.s_extension.traces);
  EXPECT_EQ(a.matching.pairs(), b.matching.pairs());
  EXPECT_EQ(a.uniqueness, b.uniqueness);
}

/// The staged session exposes no added_attributes; they must be the
/// trailing columns of its extended schemas.
void ExpectAddedColumnsTrail(const std::vector<std::string>& added,
                             const Relation& extended) {
  const Schema& schema = extended.schema();
  ASSERT_GE(schema.size(), added.size());
  const size_t first = schema.size() - added.size();
  for (size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(schema.attribute(first + i).name, added[i]);
  }
}

/// `a` is the reference's result, `b` the staged identification run. The
/// world's config has no identity rules, so b's MT is exactly the
/// extended-key join.
void ExpectIdentical(const MatcherResult& a, const IdentificationResult& b) {
  EXPECT_EQ(a.r_extension.extended.rows(), b.r_extended.rows());
  EXPECT_EQ(a.s_extension.extended.rows(), b.s_extended.rows());
  ExpectAddedColumnsTrail(a.r_extension.added_attributes, b.r_extended);
  ExpectAddedColumnsTrail(a.s_extension.added_attributes, b.s_extended);
  ::eid::testing::ExpectProvenanceEqual(a.r_extension.traces, b.r_traces);
  ::eid::testing::ExpectProvenanceEqual(a.s_extension.traces, b.s_traces);
  EXPECT_EQ(a.matching.pairs(), b.matching.pairs());
  EXPECT_EQ(a.uniqueness, b.uniqueness);
}

/// GetParam(): false runs BuildMatchingTable directly, true the staged
/// session. Both are checked against the same reference result.
class ColumnarDifferentialTest : public ::testing::TestWithParam<bool> {};

TEST_P(ColumnarDifferentialTest, MatchesInterpreterOracle) {
  const bool staged = GetParam();
  GeneratedWorld world = MakeWorld(/*seed=*/41);
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    MatcherOptions options;
    options.extension.derivation.mode = mode;
    EID_ASSERT_OK_AND_ASSIGN(
        MatcherResult reference,
        reference::BuildMatchingTable(world.r, world.s, world.correspondence,
                                      world.extended_key, world.ilfds,
                                      options));
    // Sanity: the world actually joins and derives.
    EXPECT_GT(reference.matching.size(), 0u);
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(mode == DerivationMode::kExhaustive
                                   ? "exhaustive"
                                   : "first_match") +
                   " threads=" + std::to_string(threads));
      options.threads = threads;
      exec::StageStatsSet stats;
      if (staged) {
        IdentifierConfig config;
        config.correspondence = world.correspondence;
        config.extended_key = world.extended_key;
        config.ilfds = world.ilfds;
        config.distinctness_from_ilfds = false;
        config.matcher_options = options;
        EID_ASSERT_OK_AND_ASSIGN(
            IdentificationResult result,
            EntityIdentifier(config).Identify(world.r, world.s));
        ExpectIdentical(reference, result);
        stats = std::move(result.stats);
      } else {
        EID_ASSERT_OK_AND_ASSIGN(
            MatcherResult result,
            BuildMatchingTable(world.r, world.s, world.correspondence,
                               world.extended_key, world.ilfds, options));
        ExpectIdentical(reference, result);
        stats = std::move(result.stats);
      }
      // The run must actually have gone through the columnar engine: a
      // key join bounded by a posting index and at least one non-trivial
      // encode.
      const exec::StageStats* key_join = stats.Find("key_join");
      ASSERT_NE(key_join, nullptr);
      EXPECT_LT(key_join->candidate_pairs, key_join->cross_product);
      size_t reuse_hits = 0;
      for (const exec::StageStats& stage : stats.stages()) {
        reuse_hits += stage.interner_reuse_hits;
      }
      EXPECT_GT(reuse_hits, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Staged, ColumnarDifferentialTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "staged" : "exhaustive_sweep";
                         });

// --- Interner equivalence ------------------------------------------------

/// Equal Values <=> equal ids, for both the ColumnarWorld dictionary and
/// the AtomTable's per-attribute value map, over every cell of R.
TEST(ColumnarInternerTest, DictionaryAgreesWithAtomTable) {
  GeneratedWorld world = MakeWorld(/*seed=*/43);
  exec::ColumnarWorld cw;
  AtomTable atoms;
  const Schema& schema = world.r.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    const std::string& attr = schema.attribute(c).name;
    const std::vector<uint32_t>& ids = cw.Column(exec::WorldRel::kR, world.r, c);
    ASSERT_EQ(ids.size(), world.r.size());
    for (size_t row = 0; row < world.r.size(); ++row) {
      const Value& v = world.r.rows()[row][c];
      if (v.is_null()) {
        EXPECT_EQ(ids[row], exec::ColumnarWorld::kNullId);
        continue;
      }
      ASSERT_NE(ids[row], exec::ColumnarWorld::kNullId);
      // Dictionary id round-trips to the cell value.
      EXPECT_EQ(cw.dict().value(ids[row]), v);
      // The AtomTable assigns one id per (attribute, value); two cells of
      // the column share an atom id exactly when they share a dictionary
      // id — the mapping BindColumns relies on.
      AtomId atom = atoms.Intern(attr, v);
      EXPECT_EQ(atoms.Find(attr, v), std::optional<AtomId>(atom));
      EXPECT_EQ(atom, atoms.Intern(attr, cw.dict().value(ids[row])));
    }
  }
  // Distinct dictionary ids hold distinct Values (injectivity).
  for (uint32_t id = 1; id < cw.dict().size(); ++id) {
    EXPECT_NE(cw.dict().value(id), cw.dict().value(id - 1));
  }
}

/// A world seeded from a snapshot's ColumnarSeeds must be a faithful
/// interner: every adopted id decodes to the relation's cell value, ids
/// agree exactly when Values do (across both relations — one id-space),
/// and seeding performs zero encodes while counting every cell as reuse.
/// Byte-equality with a column-major re-encode is NOT expected — the
/// snapshot interns in its own first-seen order; only the id <-> Value
/// bijection is the contract.
TEST(ColumnarInternerTest, SnapshotSeedReproducesFreshIds) {
  GeneratedWorld world = MakeWorld(/*seed=*/47);
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.distinctness_from_ilfds = true;
  Result<IdentificationResult> fresh_run =
      EntityIdentifier(config).Identify(world.r, world.s);
  ASSERT_TRUE(fresh_run.ok()) << fresh_run.status().ToString();
  const std::string path = ::testing::TempDir() + "/columnar_interner.eidsnap";
  Status written = storage::WriteSnapshot(
      storage::ImageOf(world.r, world.s, config, *fresh_run), path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  Result<storage::LoadedWorld> loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->columnar_seeds, nullptr);

  exec::ColumnarWorld seeded;
  seeded.Seed(*loaded->columnar_seeds);
  const size_t r_cols = world.r.schema().size();
  const size_t s_cols = world.s.schema().size();
  auto check_columns = [&](exec::WorldRel slot, const Relation& rel,
                           size_t cols, const char* side) {
    for (size_t c = 0; c < cols; ++c) {
      const std::vector<uint32_t>* adopted = seeded.FindColumn(slot, c);
      ASSERT_NE(adopted, nullptr) << side << " column " << c;
      ASSERT_EQ(adopted->size(), rel.size()) << side << " column " << c;
      for (size_t row = 0; row < rel.size(); ++row) {
        const Value& v = rel.rows()[row][c];
        const uint32_t id = (*adopted)[row];
        if (v.is_null()) {
          EXPECT_EQ(id, exec::ColumnarWorld::kNullId)
              << side << " column " << c << " row " << row;
        } else {
          ASSERT_NE(id, exec::ColumnarWorld::kNullId)
              << side << " column " << c << " row " << row;
          // The adopted id decodes to the cell value, and probing the
          // value finds the same id — the bijection both directions.
          EXPECT_EQ(seeded.dict().value(id), v);
          EXPECT_EQ(seeded.dict().Find(v), id);
        }
      }
    }
  };
  check_columns(exec::WorldRel::kR, loaded->r, r_cols, "r");
  check_columns(exec::WorldRel::kS, loaded->s, s_cols, "s");
  // One id-space: distinct ids hold distinct Values (injectivity), so an
  // id comparison anywhere in the pipeline is a Value comparison.
  for (uint32_t id = 1; id < seeded.dict().size(); ++id) {
    EXPECT_NE(seeded.dict().value(id), seeded.dict().value(id - 1));
  }
  // Seeding counted the dictionary and both id matrices as reuse.
  EXPECT_GE(seeded.reuse_hits(),
            loaded->dictionary.size() +
                world.r.size() * r_cols + world.s.size() * s_cols);
  EXPECT_EQ(seeded.encode_ms(), 0.0);
}

/// Seeding must also leave the matcher bit-identical: a session handed
/// snapshot ColumnarSeeds produces the same MT as one that encodes from
/// scratch.
TEST(ColumnarInternerTest, SeededMatcherMatchesFresh) {
  GeneratedWorld world = MakeWorld(/*seed=*/53);
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.distinctness_from_ilfds = true;
  Result<IdentificationResult> fresh_run =
      EntityIdentifier(config).Identify(world.r, world.s);
  ASSERT_TRUE(fresh_run.ok()) << fresh_run.status().ToString();
  const std::string path = ::testing::TempDir() + "/columnar_seeded.eidsnap";
  Status written = storage::WriteSnapshot(
      storage::ImageOf(world.r, world.s, config, *fresh_run), path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  Result<storage::LoadedWorld> loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->columnar_seeds, nullptr);

  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MatcherOptions plain;
    plain.threads = threads;
    MatcherOptions with_seeds = plain;
    with_seeds.columnar_seeds = loaded->columnar_seeds;
    EID_ASSERT_OK_AND_ASSIGN(
        MatcherResult reference,
        BuildMatchingTable(loaded->r, loaded->s, loaded->correspondence,
                           *loaded->extended_key, loaded->ilfds, plain));
    EID_ASSERT_OK_AND_ASSIGN(
        MatcherResult result,
        BuildMatchingTable(loaded->r, loaded->s, loaded->correspondence,
                           *loaded->extended_key, loaded->ilfds, with_seeds));
    EXPECT_GT(reference.matching.size(), 0u);
    ExpectIdentical(reference, result);
  }
}

}  // namespace
}  // namespace eid
