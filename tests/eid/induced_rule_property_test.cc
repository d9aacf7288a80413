// Differential property suite for the Proposition 1 rules the engine
// registers straight from the ILFD set's atoms (compile::SweepRules), and
// for the two encodings the NMT stores a row in (DESIGN.md §4d).
// Random worlds and ILFD sets cover multi-atom antecedents and
// multi-consequent ILFDs, attributes on one side only or on neither,
// antecedent constants absent from their column or present only on the
// other side, consequent constants never interned, NULL constants, Int,
// Double (±0.0, NaN) and String values, NULL cells, explicit rules ahead
// of the induced ones (a join rule first, whose pairs are exceptions on
// complement rows) and column-form `!=` rules. Rows land on both sides
// of half of S, including rows that stay explicit after a describable
// rule fired on them. At threads 1 and 4 the engine's NMT pairs in
// order, certificates, verdicts and error texts must equal both
// eid::reference::Identify and the generic staged sweep over the
// spelled-out rule list (EffectiveDistinctnessRules), and Contains,
// Decide and EvidenceFor must equal the reference's on every pair. An
// ILFD with an empty antecedent must fail with DistinctnessRule::
// Validate's text, in rule order. This test runs under the tsan/asan
// presets (scripts/check.sh).

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "../test_util.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"
#include "eid/negative.h"
#include "eid/reference.h"

namespace eid {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One world attribute: its type, the values R and S draw from (each
/// side holds values the other lacks), and ILFD constants no cell holds.
struct AttributeSpec {
  std::string name;
  ValueType type;
  bool in_r;
  bool in_s;
  std::vector<Value> r_values;
  std::vector<Value> s_values;
  std::vector<Value> unseen;
};

std::vector<AttributeSpec> Attributes() {
  auto ints = [](std::initializer_list<int64_t> xs) {
    std::vector<Value> out;
    for (int64_t x : xs) out.push_back(Value::Int(x));
    return out;
  };
  auto doubles = [](std::initializer_list<double> xs) {
    std::vector<Value> out;
    for (double x : xs) out.push_back(Value::Double(x));
    return out;
  };
  auto strings = [](std::initializer_list<const char*> xs) {
    std::vector<Value> out;
    for (const char* x : xs) out.push_back(Value::Str(x));
    return out;
  };
  return {
      {"a", ValueType::kInt, true, true, ints({1, 2}), ints({2, 3}),
       ints({99})},
      {"b", ValueType::kDouble, true, true, doubles({0.0, kNaN, 1.5}),
       doubles({-0.0, kNaN, 1.5}), doubles({7.25})},
      {"c", ValueType::kString, true, true, strings({"p", "q"}),
       strings({"q", "r"}), strings({"zz"})},
      {"x", ValueType::kInt, true, false, ints({1, 2, 3}), {}, ints({99})},
      {"y", ValueType::kString, false, true, {}, strings({"p", "q", "r"}),
       strings({"zz"})},
      // On neither side: a consequent appended by extension, or nothing.
      {"k", ValueType::kString, false, false, {}, {}, strings({"p", "zz"})},
      {"z", ValueType::kInt, false, false, {}, {}, ints({1, 99})},
  };
}

struct World {
  Relation r;
  Relation s;
  IdentifierConfig config;
};

Relation RandomRelation(const std::string& name, bool r_side,
                        const std::vector<AttributeSpec>& specs,
                        std::mt19937_64& rng) {
  std::vector<Attribute> attributes;
  std::vector<const std::vector<Value>*> domains;
  for (const AttributeSpec& spec : specs) {
    if (!(r_side ? spec.in_r : spec.in_s)) continue;
    attributes.push_back(Attribute{spec.name, spec.type});
    domains.push_back(r_side ? &spec.r_values : &spec.s_values);
  }
  Relation rel(name, Schema(attributes));
  const size_t rows = 8 + rng() % 17;
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    for (const std::vector<Value>* domain : domains) {
      row.push_back(rng() % 6 == 0 ? Value::Null()
                                   : (*domain)[rng() % domain->size()]);
    }
    EXPECT_TRUE(rel.Insert(std::move(row)).ok());
  }
  return rel;
}

/// A constant for an ILFD atom over `spec`: mostly a value some side
/// holds, sometimes one no cell holds, rarely NULL.
Value RandomConstant(const AttributeSpec& spec, std::mt19937_64& rng) {
  const size_t roll = rng() % 10;
  if (roll == 0) return Value::Null();
  std::vector<Value> pool = spec.r_values;
  pool.insert(pool.end(), spec.s_values.begin(), spec.s_values.end());
  if (roll <= 2 || pool.empty()) pool = spec.unseen;
  return pool[rng() % pool.size()];
}

IlfdSet RandomIlfds(const std::vector<AttributeSpec>& specs,
                    std::mt19937_64& rng) {
  IlfdSet ilfds;
  const size_t count = 4 + rng() % 9;
  while (ilfds.size() < count) {
    std::vector<Atom> antecedent, consequent;
    const size_t body = 1 + rng() % 3;
    const size_t head = 1 + rng() % 3;
    for (size_t i = 0; i < body; ++i) {
      const AttributeSpec& spec = specs[rng() % specs.size()];
      antecedent.push_back(Atom{spec.name, RandomConstant(spec, rng)});
    }
    for (size_t i = 0; i < head; ++i) {
      const AttributeSpec& spec = specs[rng() % specs.size()];
      consequent.push_back(Atom{spec.name, RandomConstant(spec, rng)});
    }
    if (!ValidateIlfdAtoms(antecedent, consequent).ok()) continue;
    ilfds.Add(Ilfd(std::move(antecedent), std::move(consequent)));
  }
  return ilfds;
}

DistinctnessRule Rule(const std::string& name, const std::string& text) {
  Result<DistinctnessRule> rule = ParseDistinctnessRule(name, text);
  EID_CHECK(rule.ok());
  return std::move(rule).value();
}

World RandomWorld(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<AttributeSpec> specs = Attributes();
  World w{RandomRelation("R", /*r_side=*/true, specs, rng),
          RandomRelation("S", /*r_side=*/false, specs, rng),
          {}};
  w.config.correspondence = AttributeCorrespondence::Identity(w.r, w.s);
  w.config.ilfds = RandomIlfds(specs, rng);
  // Without a key every concluded attribute is appended to both sides;
  // with one only the key's are, so consequents on `k` or `z` read an
  // attribute neither side has.
  if (rng() % 2 == 0) w.config.extended_key = ExtendedKey({"c"});
  w.config.matcher_options.extension.derivation.conflict_policy =
      ConflictPolicy::kKeepFirst;
  const std::vector<DistinctnessRule> explicit_rules = {
      Rule("same_a_other_c", "e1.a = e2.a & e1.c != e2.c"),
      Rule("b_half", "e1.b = 1.5 & e2.c != \"q\""),
      Rule("x_vs_y", "e1.x = 2 & e2.y = \"r\""),
      Rule("other_c", "e1.c != e2.c"),
      Rule("other_b", "e2.b != e1.b"),
  };
  for (const DistinctnessRule& rule : explicit_rules) {
    if (rng() % 2 == 0) w.config.distinctness_rules.push_back(rule);
  }
  return w;
}

/// The generic staged sweep: the spelled-out rule list, every rule
/// planned, compiled and registered through its predicates.
Result<NegativeResult> GenericSweep(const IdentifierConfig& config,
                                    const IdentificationResult& result,
                                    int threads) {
  EID_ASSIGN_OR_RETURN(std::vector<DistinctnessRule> rules,
                       EffectiveDistinctnessRules(config));
  exec::ThreadPool pool(threads);
  exec::ColumnarWorld world;
  return BuildNegativeMatchingTable(result.r_extended, result.s_extended,
                                    rules, IlfdSet(), {},
                                    threads > 1 ? &pool : nullptr, world);
}

/// What one world's NMT exercised, at threads=1.
struct Coverage {
  size_t induced = 0;          // pairs an induced rule certified
  size_t complement_rows = 0;  // rows stored by complement
  size_t exceptions = 0;       // complement-row pairs the join rule certified
  size_t rewalked = 0;         // explicit rows a describable rule fired on
  size_t column_ne = 0;        // pairs a column-form `!=` rule certified
};

/// Contains, Decide and EvidenceFor of the engine's result equal the
/// reference's on every pair.
void ExpectSameOnEveryPair(const IdentificationResult& engine,
                           const IdentificationResult& reference) {
  EXPECT_EQ(engine.negative.table.size(), reference.negative.table.size());
  for (size_t i = 0; i < engine.r_extended.size(); ++i) {
    for (size_t j = 0; j < engine.s_extended.size(); ++j) {
      const TuplePair pair{i, j};
      EXPECT_EQ(engine.negative.table.Contains(pair),
                reference.negative.table.Contains(pair))
          << "(" << i << ", " << j << ")";
      EXPECT_EQ(engine.Decide(i, j), reference.Decide(i, j))
          << "(" << i << ", " << j << ")";
      const std::optional<NegativePairEvidence> got =
          engine.negative.table.EvidenceFor(pair);
      const std::optional<NegativePairEvidence> want =
          reference.negative.table.EvidenceFor(pair);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "(" << i << ", " << j << ")";
      if (got.has_value()) {
        EXPECT_EQ(got->rule_index, want->rule_index)
            << "(" << i << ", " << j << ")";
        EXPECT_EQ(got->flipped, want->flipped) << "(" << i << ", " << j << ")";
      }
    }
  }
}

/// What `result`'s NMT exercised (see Coverage).
Coverage CoverageOf(const IdentifierConfig& config,
                    const IdentificationResult& result) {
  Coverage out;
  std::vector<std::string> names;
  for (const DistinctnessRule& rule : config.distinctness_rules) {
    names.push_back(rule.name());
  }
  auto named = [&](uint32_t certificate, const std::string& name) {
    return certificate / 2 < names.size() && names[certificate / 2] == name;
  };
  // The table does not show its rows' encoding: sweep the same rules
  // again for it.
  exec::ColumnarWorld world;
  exec::StageStats stats;
  const exec::FiredRows rows = compile::SweepRules(
      config.distinctness_rules, config.ilfds,
      ListDistinctnessRules(config.distinctness_rules, config.ilfds,
                            config.distinctness_from_ilfds)
          .induced,
      result.r_extended, result.s_extended, world, /*pool=*/nullptr, &stats);
  out.complement_rows = rows.complement.rows.size();
  const std::vector<TuplePair> pairs = result.negative.table.pairs();
  const std::vector<uint32_t> evidence = result.negative.table.certificates();
  std::set<uint32_t> rewalked;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint32_t certificate = evidence[i];
    const bool complement =
        rows.complement.Find(pairs[i].r_index).has_value();
    const bool induced = certificate / 2 >= names.size();
    const bool column_ne =
        named(certificate, "other_c") || named(certificate, "other_b");
    if (induced) ++out.induced;
    if (column_ne) ++out.column_ne;
    if (complement && named(certificate, "same_a_other_c")) ++out.exceptions;
    // Induced and column-form rules are describable wherever they fire.
    if (!complement && (induced || column_ne)) {
      rewalked.insert(pairs[i].r_index);
    }
  }
  out.rewalked = rewalked.size();
  return out;
}

/// Engine ≡ reference ≡ generic sweep on one world, at threads 1 and 4.
/// Returns what the threads=1 NMT exercised.
Coverage ExpectAllAgree(const World& w) {
  const Result<IdentificationResult> reference =
      reference::Identify(w.config, w.r, w.s);
  Coverage coverage;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IdentifierConfig config = w.config;
    config.matcher_options.threads = threads;
    const Result<IdentificationResult> engine =
        EntityIdentifier(config).Identify(w.r, w.s);
    EXPECT_EQ(engine.status(), reference.status());
    if (!engine.ok() || !reference.ok()) continue;
    EXPECT_EQ(engine->r_extended.rows(), reference->r_extended.rows());
    EXPECT_EQ(engine->s_extended.rows(), reference->s_extended.rows());
    EXPECT_EQ(engine->matching.pairs(), reference->matching.pairs());
    EXPECT_EQ(engine->negative.table.pairs(),
              reference->negative.table.pairs());
    EXPECT_EQ(engine->negative.table.certificates(),
              reference->negative.table.certificates());
    EXPECT_EQ(engine->uniqueness, reference->uniqueness);
    EXPECT_EQ(engine->consistency, reference->consistency);
    EXPECT_EQ(engine->partition.non_matched,
              reference->partition.non_matched);
    EXPECT_EQ(engine->partition.undetermined,
              reference->partition.undetermined);
    ExpectSameOnEveryPair(*engine, *reference);

    const Result<NegativeResult> generic =
        GenericSweep(config, *engine, threads);
    EXPECT_TRUE(generic.ok()) << generic.status().ToString();
    if (!generic.ok()) continue;
    EXPECT_EQ(engine->negative.table.pairs(), generic->table.pairs());
    EXPECT_EQ(engine->negative.table.certificates(),
              generic->table.certificates());
    if (threads == 1) coverage = CoverageOf(config, *engine);
  }
  return coverage;
}

TEST(InducedRulePropertyTest, RandomWorldsEqualReferenceAndGenericSweep) {
  size_t identified = 0;
  size_t flipped_pairs = 0;
  Coverage total;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const World w = RandomWorld(seed);
    const Coverage c = ExpectAllAgree(w);
    total.induced += c.induced;
    total.complement_rows += c.complement_rows;
    total.exceptions += c.exceptions;
    total.rewalked += c.rewalked;
    total.column_ne += c.column_ne;
    Result<IdentificationResult> result =
        EntityIdentifier(w.config).Identify(w.r, w.s);
    if (!result.ok()) continue;
    ++identified;
    for (uint32_t certificate : result->negative.table.certificates()) {
      if ((certificate & 1) != 0) ++flipped_pairs;
    }
  }
  // The worlds exercise what they are for: most identify, induced rules
  // certify pairs in both orientations, column-form `!=` rules certify
  // pairs, and rows land in complement form (with exceptions) and stay
  // explicit after a describable rule fired on them.
  EXPECT_GE(identified, 40u);
  EXPECT_GT(total.induced, 0u);
  EXPECT_GT(flipped_pairs, 0u);
  EXPECT_GT(total.column_ne, 0u);
  EXPECT_GT(total.complement_rows, 0u);
  EXPECT_GT(total.exceptions, 0u);
  EXPECT_GT(total.rewalked, 0u);
}

TEST(InducedRulePropertyTest, EmptyAntecedentFailsWithTheValidateText) {
  World w = RandomWorld(7);
  w.config.distinctness_rules.clear();
  IdentifierConfig no_induced = w.config;
  no_induced.distinctness_from_ilfds = false;
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult extended,
                           EntityIdentifier(no_induced).Identify(w.r, w.s));

  // Two ILFDs without an antecedent: the first one's rule fails.
  w.config.ilfds.Add(Ilfd::Implies({}, Atom{"c", Value::Str("q")}));
  w.config.ilfds.Add(Ilfd::Implies({}, Atom{"a", Value::Int(2)}));
  const Status want = Status::InvalidArgument(
      "distinctness rule 'prop1( -> c=q)' must involve some attribute from "
      "each of e1 and e2 (paper §3.2)");
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IdentifierConfig config = w.config;
    config.matcher_options.threads = threads;
    EXPECT_EQ(EntityIdentifier(config).Identify(w.r, w.s).status(), want);
    EXPECT_EQ(GenericSweep(config, extended, threads).status(), want);
  }
  EXPECT_EQ(reference::Identify(w.config, w.r, w.s).status(), want);

  // An invalid explicit rule comes first in rule order, so its text wins.
  w.config.distinctness_rules.push_back(Rule("one_sided", "e1.a = 1"));
  const Status explicit_first = Status::InvalidArgument(
      "distinctness rule 'one_sided' must involve some attribute from each "
      "of e1 and e2 (paper §3.2)");
  EXPECT_EQ(EntityIdentifier(w.config).Identify(w.r, w.s).status(),
            explicit_first);
  EXPECT_EQ(reference::Identify(w.config, w.r, w.s).status(), explicit_first);
}

}  // namespace
}  // namespace eid
