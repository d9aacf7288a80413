// Seeded property test of identity rules swept in one orientation (paper
// §3.2). A rule Validate accepts implies e1.A = e2.A on every attribute
// it reads, so its two orientations fire on the same pairs and the
// engine sweeps only the direct one. For random rules on random small
// worlds:
//
//  * compile::SweepRules over identity rules fires exactly the pairs of
//    the direct-orientation nested loop, for every rule, valid or not;
//  * for every rule Validate accepts, EntityIdentifier::Identify equals
//    eid::reference::Identify, which tries both orientations: MT pairs
//    in order and both verdicts, at threads 1 and 4, and the incremental
//    session agrees on every match; a rule Validate rejects fails all
//    three with the same status.
//
// Rules mix cross-attribute equality chains, constants on both sides,
// ordering conjuncts over attributes the rule forces equal, and
// attributes absent from a side. Worlds hold NULL cells, Int/Double
// look-alikes (1 and 1.0) and doubles that print alike (0.1 and
// 0.1000001). A failure names its seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "compile/pair_program.h"
#include "eid/identifier.h"
#include "eid/incremental.h"
#include "eid/reference.h"

namespace eid {
namespace {

constexpr const char* kAttributes[] = {"a", "b", "c", "x"};

/// Values an attribute takes on one side: strings for a and b; Int for
/// c on R and Int or the equal-looking Double on S; doubles that print
/// alike for x.
std::vector<Value> Pool(const std::string& attribute, ValueType type) {
  if (attribute == "a" || attribute == "b") {
    return {Value::Str("p"), Value::Str("q"), Value::Str("r")};
  }
  if (attribute == "c") {
    if (type == ValueType::kDouble) {
      return {Value::Double(0.0), Value::Double(1.0), Value::Double(2.0)};
    }
    return {Value::Int(0), Value::Int(1), Value::Int(2)};
  }
  return {Value::Double(0.1), Value::Double(0.1000001), Value::Double(2.5)};
}

ValueType TypeOf(const std::string& attribute, bool s_side,
                 std::mt19937* rng) {
  if (attribute == "a" || attribute == "b") return ValueType::kString;
  if (attribute == "c") {
    return s_side && (*rng)() % 2 == 0 ? ValueType::kDouble : ValueType::kInt;
  }
  return ValueType::kDouble;
}

/// A relation over a random subset of the attributes (at least one),
/// 4-9 rows, about one NULL cell in five.
Relation RandomRelation(const std::string& name, bool s_side,
                        std::mt19937* rng) {
  std::vector<Attribute> attributes;
  for (const char* a : kAttributes) {
    if ((*rng)() % 4 != 0) {
      attributes.push_back(Attribute{a, TypeOf(a, s_side, rng)});
    }
  }
  if (attributes.empty()) {
    attributes.push_back(Attribute{"a", ValueType::kString});
  }
  Relation rel(name, Schema(attributes));
  const size_t rows = 4 + (*rng)() % 6;
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    for (const Attribute& a : attributes) {
      const std::vector<Value> pool = Pool(a.name, a.type);
      row.push_back((*rng)() % 5 == 0 ? Value::Null()
                                      : pool[(*rng)() % pool.size()]);
    }
    EXPECT_TRUE(rel.Insert(std::move(row)).ok());
  }
  return rel;
}

/// A constant for `attribute`: one of its values on either side, so
/// constants meet their look-alikes.
Value RandomConstant(const std::string& attribute, std::mt19937* rng) {
  const std::vector<Value> ints = Pool(attribute, ValueType::kInt);
  const std::vector<Value> doubles = Pool(attribute, ValueType::kDouble);
  const std::vector<Value>& pool = (*rng)() % 2 == 0 ? ints : doubles;
  return pool[(*rng)() % pool.size()];
}

std::string RandomAttribute(std::mt19937* rng) {
  return kAttributes[(*rng)() % std::size(kAttributes)];
}

/// A random antecedent. Each linked attribute A gets a link that forces
/// e1.A = e2.A — directly, through a shared constant, or through a chain
/// over another attribute — except that a constant link may pin the two
/// sides to look-alike constants, which forces nothing. Extra conjuncts
/// compare linked attributes with constants or with each other, pin one
/// side to a constant, or read an unlinked attribute.
IdentityRule RandomRule(std::mt19937* rng) {
  auto attr = [](int entity, const std::string& a) {
    return Operand::Attr(entity, a);
  };
  auto eq = [](Operand l, Operand r) {
    return Predicate{std::move(l), CompareOp::kEq, std::move(r)};
  };
  std::vector<Predicate> preds;
  std::vector<std::string> linked;
  const size_t links = 1 + (*rng)() % 2;
  for (size_t i = 0; i < links; ++i) {
    const std::string a = RandomAttribute(rng);
    linked.push_back(a);
    switch ((*rng)() % 5) {
      case 0:
        preds.push_back(eq(attr(1, a), attr(2, a)));
        break;
      case 1:
        preds.push_back(eq(attr(2, a), attr(1, a)));
        break;
      case 2: {
        const Value c = RandomConstant(a, rng);
        const Value d = (*rng)() % 2 == 0 ? RandomConstant(a, rng) : c;
        preds.push_back(eq(attr(1, a), Operand::Const(c)));
        preds.push_back(eq(Operand::Const(d), attr(2, a)));
        break;
      }
      case 3: {
        // e1.a = e1.b = e2.b = e2.a: a cross-attribute chain.
        const std::string b = RandomAttribute(rng);
        linked.push_back(b);
        preds.push_back(eq(attr(1, a), attr(1, b)));
        preds.push_back(eq(attr(1, b), attr(2, b)));
        preds.push_back(eq(attr(2, b), attr(2, a)));
        break;
      }
      default: {
        // e1.a = e2.b = e2.a: forces a, and b only if linked elsewhere.
        const std::string b = RandomAttribute(rng);
        preds.push_back(eq(attr(1, a), attr(2, b)));
        preds.push_back(eq(attr(2, b), attr(2, a)));
        break;
      }
    }
  }
  static const CompareOp kOrdering[] = {CompareOp::kLt, CompareOp::kGt,
                                        CompareOp::kLe, CompareOp::kGe,
                                        CompareOp::kNe};
  const size_t extras = (*rng)() % 3;
  for (size_t i = 0; i < extras; ++i) {
    const std::string a = linked[(*rng)() % linked.size()];
    const int entity = 1 + static_cast<int>((*rng)() % 2);
    const CompareOp op = kOrdering[(*rng)() % std::size(kOrdering)];
    switch ((*rng)() % 4) {
      case 0:
        preds.push_back(Predicate{attr(entity, a), op,
                                  Operand::Const(RandomConstant(a, rng))});
        break;
      case 1:
        preds.push_back(Predicate{
            attr(1, a), op, attr(2, linked[(*rng)() % linked.size()])});
        break;
      case 2:
        preds.push_back(
            eq(attr(entity, a), Operand::Const(RandomConstant(a, rng))));
        break;
      default: {
        const std::string b = RandomAttribute(rng);
        preds.push_back(Predicate{attr(entity, b), op, attr(3 - entity, a)});
        break;
      }
    }
  }
  std::shuffle(preds.begin(), preds.end(), *rng);
  return IdentityRule("random", std::move(preds));
}

/// Pairs whose antecedent is kTrue with e1 := r row, e2 := s row (or the
/// other way round when `flipped`), row-major.
std::vector<TuplePair> NestedLoop(const IdentityRule& rule, const Relation& r,
                                  const Relation& s, bool flipped) {
  std::vector<TuplePair> out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      const Truth t = flipped ? rule.Matches(s.tuple(j), r.tuple(i))
                              : rule.Matches(r.tuple(i), s.tuple(j));
      if (t == Truth::kTrue) out.push_back(TuplePair{i, j});
    }
  }
  return out;
}

Relation EmptyLike(const Relation& model) {
  return Relation(model.name(), model.schema());
}

TEST(IdentityRulePropertyTest, OneOrientationEqualsBothOnRandomRules) {
  size_t accepted = 0, rejected = 0, accepted_firing = 0, asymmetric = 0;
  for (uint32_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    const Relation r = RandomRelation("R", /*s_side=*/false, &rng);
    const Relation s = RandomRelation("S", /*s_side=*/true, &rng);
    IdentifierConfig config;
    config.correspondence = AttributeCorrespondence::Identity(r, s);
    config.distinctness_from_ilfds = false;
    const size_t rules = 1 + rng() % 2;
    for (size_t k = 0; k < rules; ++k) {
      config.identity_rules.push_back(RandomRule(&rng));
    }
    if (rng() % 3 == 0) {
      config.extended_key = ExtendedKey({RandomAttribute(&rng)});
      if (config.correspondence.Find(config.extended_key->attributes()[0]) ==
          nullptr) {
        config.extended_key.reset();
      }
    }
    std::string rule_text;
    for (const IdentityRule& rule : config.identity_rules) {
      rule_text += rule.ToString() + "; ";
    }
    SCOPED_TRACE(rule_text);

    // The sweep is the direct-orientation fold, valid rule or not.
    bool fires = false;
    for (const IdentityRule& rule : config.identity_rules) {
      const std::vector<TuplePair> direct =
          NestedLoop(rule, r, s, /*flipped=*/false);
      fires = fires || !direct.empty();
      if (direct != NestedLoop(rule, r, s, /*flipped=*/true)) {
        ++asymmetric;
        EXPECT_FALSE(rule.Validate().ok());
      }
      for (int threads : {1, 4}) {
        exec::ThreadPool pool(threads);
        exec::ColumnarWorld world;
        exec::StageStats stats;
        EXPECT_EQ(compile::SweepRules({rule}, r, s, world,
                                      threads > 1 ? &pool : nullptr, &stats)
                      .pairs,
                  direct)
            << "threads=" << threads;
      }
    }

    // The engine, one orientation, against the reference, both.
    const Result<IdentificationResult> ref = reference::Identify(config, r, s);
    for (int threads : {1, 4}) {
      config.matcher_options.threads = threads;
      const Result<IdentificationResult> got =
          EntityIdentifier(config).Identify(r, s);
      ASSERT_EQ(got.ok(), ref.ok())
          << "threads=" << threads << ": "
          << (ref.ok() ? got : ref).status().ToString();
      if (!ref.ok()) {
        EXPECT_EQ(got.status(), ref.status());
        continue;
      }
      EXPECT_EQ(got->matching.pairs(), ref->matching.pairs())
          << "threads=" << threads;
      EXPECT_EQ(got->uniqueness, ref->uniqueness) << "threads=" << threads;
      EXPECT_EQ(got->consistency, ref->consistency) << "threads=" << threads;
    }
    Result<IncrementalIdentifier> inc =
        IncrementalIdentifier::Create(config, EmptyLike(r), EmptyLike(s));
    ASSERT_EQ(inc.ok(), ref.ok());
    if (!ref.ok()) {
      EXPECT_EQ(inc.status(), ref.status());
      ++rejected;
      continue;
    }
    ++accepted;
    for (const Row& row : r.rows()) ASSERT_TRUE(inc->InsertR(row).ok());
    for (const Row& row : s.rows()) ASSERT_TRUE(inc->InsertS(row).ok());
    for (size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(inc->MatchOfR(i), ref->matching.MatchOfR(i)) << "r " << i;
    }
    EXPECT_EQ(inc->Uniqueness().ok(), ref->uniqueness.ok());
    if (fires) ++accepted_firing;
  }
  // The generator reaches every case the property is about.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(accepted_firing, 80u);
  EXPECT_GT(asymmetric, 20u);
}

}  // namespace
}  // namespace eid
