#include "eid/extension.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eid/reference.h"
#include "exec/columnar_world.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

TEST(ExtensionTest, AddsMissingExtendedKeyColumnsAsNullByDefault) {
  Relation r = fixtures::Example2R();  // name, cuisine, street
  Relation s = fixtures::Example2S();  // name, speciality, city
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  ExtendedKey key({"name", "cuisine"});
  IlfdSet no_knowledge;
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult sx,
      ExtendRelation(s, Side::kS, corr, key, no_knowledge));
  EXPECT_EQ(sx.added_attributes, (std::vector<std::string>{"cuisine"}));
  ASSERT_TRUE(sx.extended.schema().Contains("cuisine"));
  EXPECT_TRUE(sx.extended.tuple(0).GetOrNull("cuisine").is_null());
}

TEST(ExtensionTest, DerivesMissingValuesViaIlfds) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult sx,
      ExtendRelation(s, Side::kS, corr, fixtures::Example2ExtendedKey(),
                     fixtures::Example2Ilfds()));
  EXPECT_EQ(sx.extended.tuple(0).GetOrNull("cuisine").AsString(), "Indian");
  ASSERT_EQ(sx.traces.size(), 1u);
  EXPECT_EQ(sx.traces[0].steps.size(), 1u);
  EXPECT_EQ(sx.traces[0].steps[0].ilfd_index, 0u);
}

TEST(ExtensionTest, RowOrderAndOriginalValuesPreserved) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult rx,
      ExtendRelation(r, Side::kR, corr, fixtures::Example3ExtendedKey(),
                     fixtures::Example3Ilfds()));
  ASSERT_EQ(rx.extended.size(), r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(rx.extended.tuple(i).GetOrNull("name"),
              r.tuple(i).GetOrNull("name"));
    EXPECT_EQ(rx.extended.tuple(i).GetOrNull("street"),
              r.tuple(i).GetOrNull("street"));
  }
}

TEST(ExtensionTest, KeysCarryOverToExtendedRelation) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult rx,
      ExtendRelation(r, Side::kR, corr, fixtures::Example3ExtendedKey(),
                     fixtures::Example3Ilfds()));
  EXPECT_EQ(rx.extended.PrimaryKeyNames(),
            (std::vector<std::string>{"name", "cuisine"}));
}

TEST(ExtensionTest, IntermediateDerivedAttributesNotAddedByDefault) {
  // Deriving R's speciality for It'sGreek goes through county (I7, I8),
  // but county is not an extended-key attribute, so R' must not have it.
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult rx,
      ExtendRelation(r, Side::kR, corr, fixtures::Example3ExtendedKey(),
                     fixtures::Example3Ilfds()));
  EXPECT_FALSE(rx.extended.schema().Contains("county"));
  EXPECT_EQ(rx.extended.tuple(2).GetOrNull("speciality").AsString(), "Gyros");
}

TEST(ExtensionTest, DeriveAllAddsEveryDerivableColumn) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  ExtensionOptions opts;
  opts.derive_all = true;
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult rx,
      ExtendRelation(r, Side::kR, corr, fixtures::Example3ExtendedKey(),
                     fixtures::Example3Ilfds(), opts));
  ASSERT_TRUE(rx.extended.schema().Contains("county"));
  EXPECT_EQ(rx.extended.tuple(2).GetOrNull("county").AsString(), "Ramsey");
}

TEST(ExtensionTest, FirstMatchModeMirrorsPrototype) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  ExtensionOptions opts;
  opts.derivation.mode = DerivationMode::kFirstMatch;
  EID_ASSERT_OK_AND_ASSIGN(
      ExtensionResult rx,
      ExtendRelation(r, Side::kR, corr, fixtures::Example3ExtendedKey(),
                     fixtures::Example3Ilfds(), opts));
  std::vector<std::string> expected = {"Hunan", "null", "Gyros", "Mughalai",
                                       "null"};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rx.extended.tuple(i).GetOrNull("speciality").ToString(),
              expected[i]);
  }
}

TEST(ExtensionTest, DirtyDataSurfacesAsConflictError) {
  // A base tuple contradicting an ILFD fails extension under kError.
  Relation s("S", Schema::OfStrings({"name", "speciality", "cuisine"}));
  EID_EXPECT_OK(s.DeclareKey({"name"}));
  EID_EXPECT_OK(s.InsertText({"X", "Mughalai", "Greek"}));
  Relation r = fixtures::Example2R();
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, s);
  Result<ExtensionResult> sx =
      ExtendRelation(s, Side::kS, corr, fixtures::Example2ExtendedKey(),
                     fixtures::Example2Ilfds());
  ASSERT_FALSE(sx.ok());
  EXPECT_EQ(sx.status().code(), StatusCode::kConstraintViolation);
}

TEST(ExtensionTest, ColumnarKeyRecheckRejectsWhatInsertRejects) {
  // Rows installed without per-row checks (AdoptRows, the snapshot-load
  // path) can break a key. The columnar sweep re-checks keys at the id
  // level and must hand such rows to the per-row Insert replay, which
  // rejects them — for a NULL key cell and for duplicate keys of width 1,
  // 2 (packed) and 3 — with the reference's status, message included.
  const std::vector<std::string> attrs = {"a", "b", "c", "d"};
  struct Case {
    std::vector<std::string> key;
    std::vector<Row> rows;
  };
  auto row = [](const char* a, const char* b, const char* c) {
    return Row{Value::Str(a), Value::Str(b), Value::Str(c), Value::Str("d")};
  };
  const std::vector<Case> cases = {
      {{"a"}, {row("x", "1", "p"), row("x", "2", "q")}},
      {{"a", "b"}, {row("x", "1", "p"), row("y", "1", "q"),
                    row("x", "1", "r")}},
      {{"a", "b", "c"}, {row("x", "1", "p"), row("x", "1", "q"),
                         row("x", "1", "p")}},
      {{"a"}, {row("x", "1", "p"),
               Row{Value::Null(), Value::Str("2"), Value::Str("q"),
                   Value::Str("d")}}},
      {{"a", "b", "c"}, {row("x", "1", "p"), row("x", "2", "p"),
                         row("y", "1", "p")}},  // valid: no error
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    Relation r("R", Schema::OfStrings(attrs));
    EID_ASSERT_OK(r.DeclareKey(cases[i].key));
    r.AdoptRows(cases[i].rows);
    AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, r);
    ExtendedKey key({"a", "e"});
    Result<ExtensionResult> oracle =
        reference::ExtendRelation(r, Side::kR, corr, key, IlfdSet());
    exec::ColumnarWorld world;
    Result<ExtensionResult> columnar =
        ExtendRelation(r, Side::kR, corr, key, IlfdSet(), ExtensionOptions(),
                       /*pool=*/nullptr, /*stats=*/nullptr, world);
    const bool valid = i + 1 == cases.size();
    EXPECT_EQ(oracle.ok(), valid) << "case " << i;
    EXPECT_EQ(columnar.ok(), valid) << "case " << i;
    EXPECT_EQ(columnar.status(), oracle.status()) << "case " << i;
    if (oracle.ok() && columnar.ok()) {
      EXPECT_EQ(columnar->extended.rows(), oracle->extended.rows());
    }
  }
}

/// The appended column's type as a scan of every ILFD decides it: the
/// scan's `break` leaves only the consequent loop, so the last ILFD with
/// a non-NULL consequent for the attribute wins; kString when none has.
ValueType ScannedColumnType(const IlfdSet& ilfds, const std::string& name) {
  ValueType type = ValueType::kString;
  for (const Ilfd& f : ilfds.ilfds()) {
    for (const Atom& c : f.consequent()) {
      if (c.attribute == name && !c.value.is_null()) {
        type = c.value.type();
        break;
      }
    }
  }
  return type;
}

TEST(ExtensionTest, AppendedColumnTypeFollowsLastNonNullConsequent) {
  Relation r = ::eid::testing::MakeRelation("R", {"name"}, {"name"},
                                            {{"a"}, {"b"}});
  AttributeCorrespondence corr = AttributeCorrespondence::Identity(r, r);
  ExtendedKey key({"name", "x"});
  // Antecedents no row satisfies: only the schema is under test.
  auto rule = [](const std::string& cond, std::vector<Atom> consequent) {
    return Ilfd({Atom{"name", Value::String(cond)}}, std::move(consequent));
  };
  const Atom x_int{"x", Value::Int(1)};
  const Atom x_str{"x", Value::Str("s")};
  const Atom x_dbl{"x", Value::Double(2.5)};
  const Atom x_null{"x", Value::Null()};
  const Atom y_int{"y", Value::Int(3)};
  struct Case {
    std::vector<Ilfd> ilfds;
    ValueType want;
  };
  const std::vector<Case> cases = {
      {{}, ValueType::kString},
      {{rule("p", {y_int})}, ValueType::kString},
      {{rule("p", {x_null})}, ValueType::kString},
      {{rule("p", {x_int})}, ValueType::kInt},
      {{rule("p", {x_int}), rule("q", {x_str})}, ValueType::kString},
      {{rule("p", {x_str}), rule("q", {x_int})}, ValueType::kInt},
      {{rule("p", {x_dbl}), rule("q", {x_null})}, ValueType::kDouble},
      {{rule("p", {x_int}), rule("q", {x_dbl, y_int}), rule("r", {y_int})},
       ValueType::kDouble},
      {{rule("p", {x_dbl}), rule("q", {x_null, y_int}),
        rule("r", {x_str}), rule("s", {x_null})},
       ValueType::kString},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const IlfdSet ilfds(cases[i].ilfds);
    ASSERT_EQ(ScannedColumnType(ilfds, "x"), cases[i].want) << "case " << i;
    EXPECT_EQ(ilfds.ConsequentType("x"), cases[i].want) << "case " << i;
    EID_ASSERT_OK_AND_ASSIGN(ExtensionResult rx,
                             ExtendRelation(r, Side::kR, corr, key, ilfds));
    EID_ASSERT_OK_AND_ASSIGN(
        ExtensionResult ref,
        reference::ExtendRelation(r, Side::kR, corr, key, ilfds));
    for (const ExtensionResult* ext : {&rx, &ref}) {
      const std::optional<size_t> x = ext->extended.schema().IndexOf("x");
      ASSERT_TRUE(x.has_value()) << "case " << i;
      EXPECT_EQ(ext->extended.schema().attribute(*x).type, cases[i].want)
          << "case " << i << (ext == &rx ? " engine" : " reference");
    }
  }
}

}  // namespace
}  // namespace eid
