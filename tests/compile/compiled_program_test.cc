// Unit tests for the compiled execution layer (src/compile/): compiled
// pair programs against the predicate interpreter, and compiled
// derivation programs against DeriveTuple.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "compile/derivation_program.h"
#include "compile/pair_program.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

Schema TwoColumnSchema(const std::string& a, const std::string& b) {
  return Schema(std::vector<Attribute>{Attribute{a, ValueType::kString},
                                       Attribute{b, ValueType::kString}});
}

TEST(CompiledConjunctionTest, MatchesInterpreterIncludingNullsAndAbsent) {
  Schema r_schema = TwoColumnSchema("name", "street");
  Schema s_schema = TwoColumnSchema("name", "city");
  std::vector<Predicate> preds;
  preds.push_back(Predicate{Operand::Attr(1, "name"), CompareOp::kEq,
                            Operand::Attr(2, "name")});
  preds.push_back(Predicate{Operand::Attr(1, "street"), CompareOp::kNe,
                            Operand::Const(Value::String("Main St."))});
  // "city" is absent from the R schema: resolves to NULL in the direct
  // orientation, exactly as TupleView::GetOrNull does.
  preds.push_back(Predicate{Operand::Attr(1, "city"), CompareOp::kEq,
                            Operand::Attr(2, "city")});

  std::vector<Row> r_rows = {
      {Value::String("Kwan's"), Value::String("Wash. Ave.")},
      {Value::String("Kwan's"), Value::String("Main St.")},
      {Value::Null(), Value::String("Wash. Ave.")},
      {Value::String("Hunan"), Value::Null()},
  };
  std::vector<Row> s_rows = {
      {Value::String("Kwan's"), Value::String("Mpls.")},
      {Value::String("Hunan"), Value::Null()},
      {Value::Null(), Value::Null()},
  };

  for (bool flipped : {false, true}) {
    SCOPED_TRACE(flipped ? "flipped" : "direct");
    compile::CompiledConjunction program = compile::CompiledConjunction::
        Compile(preds, r_schema, s_schema, flipped);
    EXPECT_EQ(program.size(), preds.size());
    for (const Row& r_row : r_rows) {
      for (const Row& s_row : s_rows) {
        TupleView r_view(&r_schema, &r_row);
        TupleView s_view(&s_schema, &s_row);
        const TupleView& e1 = flipped ? s_view : r_view;
        const TupleView& e2 = flipped ? r_view : s_view;
        EXPECT_EQ(program.Evaluate(r_row, s_row),
                  EvaluateConjunction(preds, e1, e2));
      }
    }
  }
}

/// A small program with a derivation chain: street determines city,
/// city+name determines speciality (so kExhaustive has a two-step
/// closure and kFirstMatch has a recursive subgoal).
IlfdSet ChainIlfds() {
  IlfdSet ilfds;
  ilfds.Add(Ilfd::Implies({Atom{"street", Value::String("Wash. Ave.")}},
                          Atom{"city", Value::String("Mpls.")}));
  ilfds.Add(Ilfd::Implies({Atom{"city", Value::String("Mpls.")},
                           Atom{"name", Value::String("Kwan's")}},
                          Atom{"speciality", Value::String("Mughalai")}));
  return ilfds;
}

Schema ChainSchema() {
  return Schema(std::vector<Attribute>{
      Attribute{"name", ValueType::kString},
      Attribute{"street", ValueType::kString},
      Attribute{"city", ValueType::kString},
      Attribute{"speciality", ValueType::kString}});
}

TEST(DerivationProgramTest, MatchesDeriveTupleBothModes) {
  Schema schema = ChainSchema();
  IlfdSet ilfds = ChainIlfds();
  std::vector<Row> rows = {
      {Value::String("Kwan's"), Value::String("Wash. Ave."), Value::Null(),
       Value::Null()},
      {Value::String("Hunan"), Value::String("Wash. Ave."), Value::Null(),
       Value::Null()},
      {Value::String("Kwan's"), Value::Null(), Value::String("Mpls."),
       Value::Null()},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      // Base value present: never overwritten, never a conflict source.
      {Value::String("Kwan's"), Value::String("Wash. Ave."),
       Value::String("St. Paul"), Value::Null()},
  };
  for (DerivationMode mode :
       {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
    SCOPED_TRACE(mode == DerivationMode::kExhaustive ? "exhaustive"
                                                     : "first_match");
    DerivationOptions options;
    options.mode = mode;
    compile::DerivationProgram program =
        compile::DerivationProgram::Compile(schema, ilfds, options);
    ClosureEvaluator evaluator(&program.kb());
    std::vector<compile::DerivationWrite> writes;
    for (const Row& row : rows) {
      Provenance provenance;
      const Status compiled_status =
          program.Derive(row, evaluator, &provenance, &writes);
      provenance.EndRow();
      TupleView view(&schema, &row);
      Result<Derivation> interpreted_result = DeriveTuple(view, ilfds, options);
      // The last row's base city conflicts with ILFD 0 under kExhaustive +
      // kError: both engines must report the identical error.
      ASSERT_EQ(compiled_status.ok(), interpreted_result.ok());
      if (!interpreted_result.ok()) {
        EXPECT_EQ(compiled_status.ToString(),
                  interpreted_result.status().ToString());
        continue;
      }
      Derivation compiled = provenance.DerivationOf(0, ilfds);
      Derivation interpreted = std::move(interpreted_result).value();
      EXPECT_EQ(compiled.derived, interpreted.derived);
      ASSERT_EQ(compiled.steps.size(), interpreted.steps.size());
      for (size_t i = 0; i < compiled.steps.size(); ++i) {
        EXPECT_EQ(compiled.steps[i].attribute, interpreted.steps[i].attribute);
        EXPECT_EQ(compiled.steps[i].value, interpreted.steps[i].value);
        EXPECT_EQ(compiled.steps[i].ilfd_index,
                  interpreted.steps[i].ilfd_index);
      }
      // Writes land exactly where the interpreter's by-name application
      // would put them.
      for (const compile::DerivationWrite& w : writes) {
        auto it = interpreted.derived.find(schema.attribute(w.column).name);
        ASSERT_NE(it, interpreted.derived.end());
        EXPECT_EQ(it->second, program.value(w.atom));
      }
    }
  }
}

TEST(DerivationProgramTest, FixtureRelationsDeriveIdentically) {
  // Paper Example 3: every tuple of both fixture relations, both modes —
  // compiled output equals the interpreter tuple for tuple.
  IlfdSet ilfds = fixtures::Example3Ilfds();
  for (const Relation& rel : {fixtures::Example3R(), fixtures::Example3S()}) {
    for (DerivationMode mode :
         {DerivationMode::kExhaustive, DerivationMode::kFirstMatch}) {
      DerivationOptions options;
      options.mode = mode;
      compile::DerivationProgram program =
          compile::DerivationProgram::Compile(rel.schema(), ilfds, options);
      ClosureEvaluator evaluator(&program.kb());
      Provenance provenance;
      std::vector<compile::DerivationWrite> writes;
      for (size_t i = 0; i < rel.size(); ++i) {
        EID_ASSERT_OK(
            program.Derive(rel.row(i), evaluator, &provenance, &writes));
        provenance.EndRow();
        EID_ASSERT_OK_AND_ASSIGN(Derivation interpreted,
                                 DeriveTuple(rel.tuple(i), ilfds, options));
        EXPECT_EQ(provenance.DerivationOf(i, ilfds).derived,
                  interpreted.derived)
            << rel.name() << i;
      }
    }
  }
}

}  // namespace
}  // namespace eid
