#include "relational/relation.h"

#include <gtest/gtest.h>

#include <limits>

#include "../test_util.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

Relation Restaurants() {
  return MakeRelation("R", {"name", "street", "cuisine"}, {"name", "street"},
                      {{"VillageWok", "Wash.Ave.", "Chinese"},
                       {"Ching", "Co.B Rd.", "Chinese"}});
}

TEST(RelationTest, InsertAndAccess) {
  Relation r = Restaurants();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuple(0).GetOrNull("name").AsString(), "VillageWok");
  EXPECT_EQ(r.tuple(1).GetOrNull("cuisine").AsString(), "Chinese");
}

TEST(RelationTest, ArityMismatchRejected) {
  Relation r("R", Schema::OfStrings({"a", "b"}));
  Status st = r.Insert(Row{Value::Str("x")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, TypeMismatchRejected) {
  Relation r("R", Schema({Attribute{"n", ValueType::kInt}}));
  Status st = r.Insert(Row{Value::Str("notanint")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EID_EXPECT_OK(r.Insert(Row{Value::Int(3)}));
}

TEST(RelationTest, NullAllowedInNonKeyAttribute) {
  Relation r("R", Schema::OfStrings({"a", "b"}));
  EID_EXPECT_OK(r.DeclareKey({"a"}));
  EID_EXPECT_OK(r.Insert(Row{Value::Str("k"), Value::Null()}));
}

TEST(RelationTest, NullRejectedInKeyAttribute) {
  Relation r("R", Schema::OfStrings({"a", "b"}));
  EID_EXPECT_OK(r.DeclareKey({"a"}));
  Status st = r.Insert(Row{Value::Null(), Value::Str("x")});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST(RelationTest, CheckRowReportsInsertsRowErrors) {
  Relation r("R", Schema({Attribute{"k", ValueType::kString},
                          Attribute{"n", ValueType::kInt}}));
  EID_EXPECT_OK(r.DeclareKey({"k"}));
  const std::pair<Row, std::string> cases[] = {
      {Row{Value::Str("x")}, "row arity 1 != schema arity 2 for relation 'R'"},
      {Row{Value::Str("x"), Value::Str("3")},
       "type mismatch at attribute 'n': expected int, got string"},
      {Row{Value::Null(), Value::Int(3)},
       "NULL in key attribute 'k' of relation 'R'"},
  };
  for (const auto& [row, message] : cases) {
    const Status checked = r.CheckRow(row);
    EXPECT_EQ(checked.message(), message);
    EXPECT_EQ(checked, r.Insert(row));
  }
  EXPECT_EQ(r.CheckRow(Row{Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(r.CheckRow(Row{Value::Null(), Value::Int(3)}).code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, CheckRowDoesNotCheckKeyUniqueness) {
  Relation r = Restaurants();
  const Row dup{Value::Str("VillageWok"), Value::Str("Wash.Ave."),
                Value::Str("Szechuan")};
  EID_EXPECT_OK(r.CheckRow(dup));
  EXPECT_EQ(r.Insert(dup).code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, CandidateKeyUniquenessEnforced) {
  Relation r = Restaurants();
  Status dup = r.InsertText({"VillageWok", "Wash.Ave.", "Szechuan"});
  EXPECT_EQ(dup.code(), StatusCode::kConstraintViolation);
  // Same name on a different street is fine (the key is composite).
  EID_EXPECT_OK(r.InsertText({"VillageWok", "Penn.Ave.", "Chinese"}));

  // Doubles that print alike ("%g" keeps 6 significant digits) are
  // distinct keys; only a bit-identical double is a duplicate.
  Relation d("D", Schema({Attribute{"x", ValueType::kDouble}}));
  EID_ASSERT_OK(d.DeclareKey({"x"}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(1.0000001)}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(1.0000002)}));
  EXPECT_EQ(d.Insert(Row{Value::Double(1.0000001)}).code(),
            StatusCode::kConstraintViolation);
  EID_EXPECT_OK(d.ValidateKeys());
}

TEST(RelationTest, MultipleCandidateKeys) {
  Relation r("R", Schema::OfStrings({"id", "email", "name"}));
  EID_EXPECT_OK(r.DeclareKey({"id"}));
  EID_EXPECT_OK(r.DeclareKey({"email"}));
  EID_EXPECT_OK(r.InsertText({"1", "a@x", "A"}));
  EXPECT_EQ(r.InsertText({"2", "a@x", "B"}).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(r.InsertText({"1", "b@x", "B"}).code(),
            StatusCode::kConstraintViolation);
  EID_EXPECT_OK(r.InsertText({"2", "b@x", "B"}));
}

TEST(RelationTest, DeclareKeyAfterRowsFails) {
  Relation r = Restaurants();
  EXPECT_EQ(r.DeclareKey({"cuisine"}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RelationTest, DeclareKeyUnknownAttributeFails) {
  Relation r("R", Schema::OfStrings({"a"}));
  EXPECT_EQ(r.DeclareKey({"zzz"}).code(), StatusCode::kNotFound);
}

TEST(RelationTest, PrimaryKeyDefaultsToAllAttributes) {
  Relation r("R", Schema::OfStrings({"a", "b"}));
  EXPECT_EQ(r.PrimaryKeyNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(RelationTest, PrimaryKeyOfAndFindByKey) {
  Relation r = Restaurants();
  Row key = r.PrimaryKeyOf(0);
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsString(), "VillageWok");
  EXPECT_EQ(r.FindByKey(key), 0u);
  EXPECT_TRUE(r.ContainsKey(key));
  EXPECT_FALSE(r.ContainsKey(Row{Value::Str("X"), Value::Str("Y")}));
}

TEST(RelationTest, SignedZerosAreDistinctKeysAndNaNsDuplicate) {
  // Key checks and key lookups agree on one notion of double equality:
  // the bit pattern.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation d("D", Schema({Attribute{"x", ValueType::kDouble},
                          Attribute{"tag", ValueType::kString}}));
  EID_ASSERT_OK(d.DeclareKey({"x"}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(0.0), Value::Str("plus")}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(-0.0), Value::Str("minus")}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(nan), Value::Str("nan")}));
  EXPECT_EQ(d.Insert(Row{Value::Double(nan), Value::Str("again")}).code(),
            StatusCode::kConstraintViolation);
  EID_EXPECT_OK(d.ValidateKeys());
  EXPECT_EQ(d.FindByKey(Row{Value::Double(0.0)}), 0u);
  EXPECT_EQ(d.FindByKey(Row{Value::Double(-0.0)}), 1u);
  EXPECT_EQ(d.FindByKey(Row{Value::Double(nan)}), 2u);
  EXPECT_TRUE(d.ContainsKey(Row{Value::Double(nan)}));
}

TEST(RelationTest, SortRowsIsDeterministic) {
  Relation r("R", Schema::OfStrings({"a"}));
  EID_EXPECT_OK(r.InsertText({"c"}));
  EID_EXPECT_OK(r.InsertText({"a"}));
  EID_EXPECT_OK(r.InsertText({"b"}));
  r.SortRows();
  EXPECT_EQ(r.row(0)[0].AsString(), "a");
  EXPECT_EQ(r.row(2)[0].AsString(), "c");
}

TEST(RelationTest, RowsEqualUnordered) {
  Relation a("R", Schema::OfStrings({"x"}));
  Relation b("R", Schema::OfStrings({"x"}));
  EID_EXPECT_OK(a.InsertText({"1"}));
  EID_EXPECT_OK(a.InsertText({"2"}));
  EID_EXPECT_OK(b.InsertText({"2"}));
  EID_EXPECT_OK(b.InsertText({"1"}));
  EXPECT_TRUE(a.RowsEqualUnordered(b));
  EID_EXPECT_OK(b.InsertText({"3"}));
  EXPECT_FALSE(a.RowsEqualUnordered(b));

  // Doubles compare by value, not by their 6-digit display form.
  const Schema doubles({Attribute{"x", ValueType::kDouble}});
  Relation c("R", doubles);
  Relation d("R", doubles);
  EID_EXPECT_OK(c.Insert(Row{Value::Double(0.1234567)}));
  EID_EXPECT_OK(d.Insert(Row{Value::Double(0.1234568)}));
  EXPECT_FALSE(c.RowsEqualUnordered(d));
  EXPECT_TRUE(c.RowsEqualUnordered(c));
}

TEST(RelationTest, ValidateKeysDetectsManualCorruption) {
  Relation r = Restaurants();
  EID_EXPECT_OK(r.ValidateKeys());
}

TEST(RelationTest, InsertTextParsesPerSchemaTypes) {
  Relation r("R", Schema({Attribute{"n", ValueType::kInt},
                          Attribute{"s", ValueType::kString}}));
  EID_EXPECT_OK(r.InsertText({"42", "hi"}));
  EXPECT_EQ(r.row(0)[0].AsInt(), 42);
}

}  // namespace
}  // namespace eid
