// Extension provenance (ilfd/derivation.h, Provenance): every row's
// on-request Derivation view equals the interpreter's DeriveTuple on the
// row extension derived from — DeriveTuple called directly, not through
// the reference's packer — in both derivation modes, under all three
// conflict policies, with derive_all off and on, serially and on four
// threads. Also checks the CSR's own operations: Append shifts rows,
// steps, derived bits and conflict keys.

#include "ilfd/derivation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_util.h"
#include "eid/extension.h"
#include "workload/generator.h"

namespace eid {
namespace {

/// The differential suites' generated world: 180 rows per side, so four
/// threads clear ParallelFor's serial cutoff.
GeneratedWorld MakeWorld() {
  GeneratorConfig gen;
  gen.seed = 23;
  gen.overlap_entities = 120;
  gen.r_only_entities = 60;
  gen.s_only_entities = 60;
  gen.name_pool = 96;
  gen.street_pool = 128;
  gen.cities = 16;
  gen.speciality_pool = 64;
  gen.cuisines = 8;
  gen.ilfd_coverage = 1.0;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  return std::move(world).value();
}

/// The world's ILFDs plus one contradicting a street -> city rule, so
/// exhaustive derivation conflicts on R rows (R carries street).
IlfdSet WithConflict(const GeneratedWorld& world) {
  const size_t street = *world.r.schema().IndexOf("street");
  Value v;
  for (const Row& row : world.r.rows()) {
    if (!row[street].is_null()) {
      v = row[street];
      break;
    }
  }
  EID_CHECK(!v.is_null());
  IlfdSet ilfds = world.ilfds;
  ilfds.Add(Ilfd::Implies({Atom{"street", v}},
                          Atom{"city", Value::String("Nowhere")}));
  return ilfds;
}

/// The extended schema of `source`: world naming, then the missing K_Ext
/// attributes, then (derive_all) every other ILFD consequent attribute.
Schema ExtendedSchema(const GeneratedWorld& world, const Relation& source,
                      Side side, const IlfdSet& ilfds, bool derive_all) {
  Result<Relation> renamed = world.correspondence.ToWorldSchema(source, side);
  EID_CHECK(renamed.ok());
  std::vector<Attribute> attrs = renamed->schema().attributes();
  std::vector<std::string> names = world.extended_key.attributes();
  if (derive_all) {
    for (const std::string& a : ilfds.ConsequentAttributes()) {
      if (std::find(names.begin(), names.end(), a) == names.end()) {
        names.push_back(a);
      }
    }
  }
  for (const std::string& a : names) {
    if (!renamed->schema().Contains(a)) {
      attrs.push_back(Attribute{a, ilfds.ConsequentType(a)});
    }
  }
  return Schema(std::move(attrs));
}

void ExpectDerivationEqual(const Derivation& view, const Derivation& oracle,
                           size_t row) {
  EXPECT_EQ(view.derived, oracle.derived) << "row " << row;
  ASSERT_EQ(view.steps.size(), oracle.steps.size()) << "row " << row;
  for (size_t k = 0; k < view.steps.size(); ++k) {
    EXPECT_EQ(view.steps[k].attribute, oracle.steps[k].attribute)
        << "row " << row << " step " << k;
    EXPECT_EQ(view.steps[k].value, oracle.steps[k].value)
        << "row " << row << " step " << k;
    EXPECT_EQ(view.steps[k].ilfd_index, oracle.steps[k].ilfd_index)
        << "row " << row << " step " << k;
  }
  EXPECT_TRUE(view.conflicts == oracle.conflicts) << "row " << row;
}

/// What one extension recorded, for the coverage checks below.
struct Seen {
  bool failed = false;
  size_t conflicts = 0;
  size_t steps = 0;
  size_t derived = 0;
};

/// Extends `source` and checks every row's view against DeriveTuple on
/// the row extension derived from; a failed extension must report the
/// first row DeriveTuple fails on, with the identical status.
Seen ExpectViewsMatchDeriveTuple(const GeneratedWorld& world,
                                 const Relation& source, Side side,
                                 const IlfdSet& ilfds,
                                 const ExtensionOptions& options) {
  Result<ExtensionResult> extended =
      ExtendRelation(source, side, world.correspondence, world.extended_key,
                     ilfds, options);
  DerivationOptions derivation = options.derivation;
  if (options.derive_all) {
    derivation.target_attributes.clear();
  } else {
    derivation.target_attributes = world.extended_key.attributes();
  }
  const Schema schema =
      ExtendedSchema(world, source, side, ilfds, options.derive_all);
  Seen seen;
  size_t derived = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    Row row = source.row(i);
    row.resize(schema.size(), Value::Null());
    Result<Derivation> oracle =
        DeriveTuple(TupleView(&schema, &row), ilfds, derivation);
    if (!oracle.ok()) {
      EXPECT_FALSE(extended.ok()) << "row " << i;
      if (!extended.ok()) {
        EXPECT_EQ(extended.status().ToString(), oracle.status().ToString());
      }
      seen.failed = true;
      return seen;
    }
    if (!extended.ok()) {
      ADD_FAILURE() << "extension failed where DeriveTuple succeeds on row "
                    << i << ": " << extended.status().ToString();
      return seen;
    }
    const Provenance& traces = extended->traces;
    EXPECT_EQ(extended->extended.schema().size(), schema.size());
    ExpectDerivationEqual(traces.DerivationOf(i, ilfds), *oracle, i);
    derived += oracle->derived.size();
  }
  if (!extended.ok()) {
    ADD_FAILURE() << extended.status().ToString();
    return seen;
  }
  const Provenance& traces = extended->traces;
  EXPECT_EQ(traces.rows(), source.size());
  EXPECT_EQ(traces.derived_count(), derived);
  seen.conflicts = traces.conflicts().size();
  seen.steps = traces.step_count();
  seen.derived = traces.derived_count();
  return seen;
}

const char* PolicyName(ConflictPolicy policy) {
  switch (policy) {
    case ConflictPolicy::kError: return "error";
    case ConflictPolicy::kKeepFirst: return "keep_first";
    case ConflictPolicy::kNullOut: return "null_out";
  }
  return "?";
}

TEST(ProvenanceTest, ViewEqualsDeriveTupleOnEveryRow) {
  const GeneratedWorld world = MakeWorld();
  const IlfdSet ilfds = WithConflict(world);
  bool error_failed = false;
  size_t policy_conflicts = 0;
  bool underived_step = false;
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    for (ConflictPolicy policy : {ConflictPolicy::kError,
                                  ConflictPolicy::kKeepFirst,
                                  ConflictPolicy::kNullOut}) {
      for (bool derive_all : {false, true}) {
        for (int threads : {1, 4}) {
          SCOPED_TRACE(std::string(mode == DerivationMode::kExhaustive
                                       ? "exhaustive"
                                       : "first_match") +
                       " " + PolicyName(policy) +
                       (derive_all ? " derive_all" : "") +
                       " threads=" + std::to_string(threads));
          ExtensionOptions options;
          options.derivation.mode = mode;
          options.derivation.conflict_policy = policy;
          options.derive_all = derive_all;
          options.threads = threads;
          for (const auto& [source, side] :
               {std::pair<const Relation*, Side>{&world.r, Side::kR},
                {&world.s, Side::kS}}) {
            const Seen seen = ExpectViewsMatchDeriveTuple(
                world, *source, side, ilfds, options);
            if (mode != DerivationMode::kExhaustive) continue;
            if (policy == ConflictPolicy::kError) {
              error_failed = error_failed || seen.failed;
            } else {
              policy_conflicts += seen.conflicts;
            }
            underived_step = underived_step || seen.steps > seen.derived;
          }
        }
      }
    }
  }
  // The world exercises what the view must rebuild: a kError failure,
  // recorded conflicts, and steps outside the derived map.
  EXPECT_TRUE(error_failed);
  EXPECT_GT(policy_conflicts, 0u);
  EXPECT_TRUE(underived_step);
}

TEST(ProvenanceTest, AppendShiftsRowsStepsBitsAndConflicts) {
  IlfdSet ilfds;
  ASSERT_TRUE(ilfds.AddText("a=1 -> b=2").ok());
  ASSERT_TRUE(ilfds.AddText("b=2 -> c=3").ok());
  const AtomId b = *ilfds.atoms().Find("b", Value::Int(2));
  const AtomId c = *ilfds.atoms().Find("c", Value::Int(3));
  const DerivationConflict conflict{"b", Value::Int(2), Value::Int(4), 0, 1};

  // 70 steps in the first part, so the second part's bits straddle a
  // word boundary.
  Provenance first;
  for (int r = 0; r < 35; ++r) {
    first.AddStep(b, 0);
    const size_t step = first.AddStep(c, 1);
    if (r % 2 == 0) first.MarkDerived(step);
    first.EndRow();
  }
  Provenance second;
  second.EndRow();  // a row without steps
  second.MarkDerived(second.AddStep(b, 0));
  second.AddConflict(conflict);
  second.EndRow();

  Provenance joined = first;
  joined.Append(second);
  ASSERT_EQ(joined.rows(), 37u);
  ASSERT_EQ(joined.step_count(), 71u);
  EXPECT_EQ(joined.derived_count(), 19u);
  EXPECT_EQ(joined.row_begin(35), 70u);
  EXPECT_EQ(joined.row_end(35), 70u);
  EXPECT_TRUE(joined.derived(70));   // second's derived step
  EXPECT_TRUE(joined.derived(69));   // row 34's c
  EXPECT_FALSE(joined.derived(68));  // row 34's b
  EXPECT_FALSE(joined.derived(67));  // row 33's c: odd rows derive none

  const Derivation last = joined.DerivationOf(36, ilfds);
  ASSERT_EQ(last.steps.size(), 1u);
  EXPECT_EQ(last.steps[0].attribute, "b");
  EXPECT_EQ(last.derived.at("b"), Value::Int(2));
  ASSERT_EQ(last.conflicts.size(), 1u);
  EXPECT_TRUE(last.conflicts[0] == conflict);
  EXPECT_TRUE(joined.DerivationOf(35, ilfds).steps.empty());
  EXPECT_TRUE(joined.DerivationOf(0, ilfds).conflicts.empty());
  const Derivation row1 = joined.DerivationOf(1, ilfds);
  EXPECT_EQ(row1.steps.size(), 2u);
  EXPECT_TRUE(row1.derived.empty());

  joined.Clear();
  EXPECT_EQ(joined.rows(), 0u);
  EXPECT_EQ(joined.step_count(), 0u);
  EXPECT_EQ(joined.derived_count(), 0u);
  EXPECT_TRUE(joined.conflicts().empty());
}

}  // namespace
}  // namespace eid
