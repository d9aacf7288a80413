#include "ilfd/ilfd.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "ilfd/ilfd_set.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(IlfdParseTest, SimpleIlfd) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  ASSERT_EQ(f.antecedent().size(), 1u);
  EXPECT_EQ(f.antecedent()[0].attribute, "speciality");
  EXPECT_EQ(f.antecedent()[0].value.AsString(), "Mughalai");
  ASSERT_EQ(f.consequent().size(), 1u);
  EXPECT_EQ(f.consequent()[0].attribute, "cuisine");
}

TEST(IlfdParseTest, ConjunctiveAntecedent) {
  EID_ASSERT_OK_AND_ASSIGN(
      Ilfd f, ParseIlfd("name=TwinCities & street=Co.B2 -> speciality=Hunan"));
  EXPECT_EQ(f.antecedent().size(), 2u);
}

TEST(IlfdParseTest, QuotedValuesKeepSpacesAndAmpersands) {
  EID_ASSERT_OK_AND_ASSIGN(
      Ilfd f, ParseIlfd("name=\"Fish & Chips\" -> cuisine=\"British Food\""));
  EXPECT_EQ(f.antecedent()[0].value.AsString(), "Fish & Chips");
  EXPECT_EQ(f.consequent()[0].value.AsString(), "British Food");
}

TEST(IlfdParseTest, NumericValues) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f, ParseIlfd("zip=55455 -> taxrate=7.5"));
  EXPECT_EQ(f.antecedent()[0].value.AsInt(), 55455);
  EXPECT_EQ(f.consequent()[0].value.AsDouble(), 7.5);
}

TEST(IlfdParseTest, ConjunctiveConsequent) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f,
                           ParseIlfd("a=1 -> b=2 & c=3"));
  EXPECT_EQ(f.consequent().size(), 2u);
}

TEST(IlfdParseTest, Errors) {
  EXPECT_FALSE(ParseIlfd("no arrow here").ok());
  EXPECT_FALSE(ParseIlfd("a=1 -> ").ok());
  EXPECT_FALSE(ParseIlfd(" -> b=2").ok());
  EXPECT_FALSE(ParseIlfd("a -> b=2").ok());
  EXPECT_FALSE(ParseIlfd("a=1 & -> b=2").ok());
}

TEST(IlfdParseTest, ListSkipsCommentsAndBlanks) {
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Ilfd> list, ParseIlfdList(R"(
# taxonomy
speciality=Hunan -> cuisine=Chinese

speciality=Gyros -> cuisine=Greek
)"));
  EXPECT_EQ(list.size(), 2u);
}

/// `text` must come back InvalidArgument naming `defect` — through the
/// parser and through IlfdSet::AddText — instead of reaching the Ilfd
/// constructor's abort; the set stays empty.
void ExpectRejected(const std::string& text, const std::string& defect) {
  Result<Ilfd> parsed = ParseIlfd(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(defect), std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find(text), std::string::npos)
      << parsed.status().message();
  IlfdSet set;
  Result<size_t> added = set.AddText(text);
  ASSERT_FALSE(added.ok()) << text;
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(set.size(), 0u);
}

TEST(IlfdParseTest, AntecedentBindingOneAttributeTwiceIsInvalid) {
  ExpectRejected("a=1 & a=2 -> b=3", "binds an attribute to two values");
}

TEST(IlfdParseTest, ConsequentContradictingAntecedentIsInvalid) {
  ExpectRejected("a=1 -> a=2", "contradicts its antecedent");
}

TEST(IlfdParseTest, ConsequentBindingOneAttributeTwiceIsInvalid) {
  ExpectRejected("a=1 -> b=2 & b=3", "binds an attribute to two values");
}

TEST(IlfdParseTest, RestatingTheAntecedentStaysAccepted) {
  // Trivial, not contradictory: the analyzer warns (EID-W003), the
  // parser accepts.
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f, ParseIlfd("a=1 -> a=1"));
  EXPECT_TRUE(f.IsTrivial());
  IlfdSet set;
  EID_EXPECT_OK(set.AddText("a=1 -> a=1").status());
  EXPECT_EQ(set.size(), 1u);
}

TEST(IlfdTest, CanonicalFormSortsAndDeduplicates) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd a, ParseIlfd("b=2 & a=1 -> c=3"));
  EID_ASSERT_OK_AND_ASSIGN(Ilfd b, ParseIlfd("a=1 & b=2 & a=1 -> c=3"));
  EXPECT_EQ(a, b);
}

TEST(IlfdTest, TrivialDetection) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd t, ParseIlfd("a=1 & b=2 -> a=1"));
  EXPECT_TRUE(t.IsTrivial());
  EID_ASSERT_OK_AND_ASSIGN(Ilfd n, ParseIlfd("a=1 -> b=2"));
  EXPECT_FALSE(n.IsTrivial());
}

TEST(IlfdTest, AntecedentHoldsRequiresNonNullEquality) {
  Relation r = MakeRelation("R", {"speciality", "cuisine"}, {},
                            {{"Mughalai", "Indian"}});
  Relation r2("R2", Schema::OfStrings({"speciality", "cuisine"}));
  EID_EXPECT_OK(r2.Insert(Row{Value::Null(), Value::Str("Indian")}));

  EID_ASSERT_OK_AND_ASSIGN(Ilfd f,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  EXPECT_TRUE(f.AntecedentHolds(r.tuple(0)));
  EXPECT_FALSE(f.AntecedentHolds(r2.tuple(0)));
}

TEST(IlfdTest, AntecedentOnMissingAttributeFails) {
  Relation r = MakeRelation("R", {"name"}, {}, {{"X"}});
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f, ParseIlfd("speciality=Hunan -> cuisine=C"));
  EXPECT_FALSE(f.AntecedentHolds(r.tuple(0)));
}

TEST(IlfdTest, SatisfiedByChecksOneTuple) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  Relation good = MakeRelation("G", {"speciality", "cuisine"}, {},
                               {{"Mughalai", "Indian"}});
  Relation bad = MakeRelation("B", {"speciality", "cuisine"}, {},
                              {{"Mughalai", "Greek"}});
  Relation other = MakeRelation("O", {"speciality", "cuisine"}, {},
                                {{"Hunan", "Greek"}});
  EXPECT_TRUE(f.SatisfiedBy(good.tuple(0)));
  EXPECT_FALSE(f.SatisfiedBy(bad.tuple(0)));
  EXPECT_TRUE(f.SatisfiedBy(other.tuple(0)));  // antecedent false
}

TEST(IlfdTest, NullConsequentPolicy) {
  EID_ASSERT_OK_AND_ASSIGN(Ilfd f,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  Relation r("R", Schema::OfStrings({"speciality", "cuisine"}));
  EID_EXPECT_OK(r.Insert(Row{Value::Str("Mughalai"), Value::Null()}));
  EXPECT_TRUE(f.SatisfiedBy(r.tuple(0), /*null_violates=*/false));
  EXPECT_FALSE(f.SatisfiedBy(r.tuple(0), /*null_violates=*/true));
}

TEST(IlfdTest, ToStringRoundTripsThroughParser) {
  EID_ASSERT_OK_AND_ASSIGN(
      Ilfd f, ParseIlfd("name=TwinCities & street=Co.B2 -> speciality=Hunan"));
  EID_ASSERT_OK_AND_ASSIGN(Ilfd g, ParseIlfd(f.ToString()));
  EXPECT_EQ(f, g);
}

TEST(IlfdDeathTest, ContradictoryConsequentAborts) {
  EXPECT_DEATH(
      Ilfd::Implies({Atom{"a", Value::Int(1)}}, Atom{"a", Value::Int(2)}),
      "contradicts");
}

TEST(IlfdDeathTest, InconsistentAntecedentAborts) {
  EXPECT_DEATH(Ilfd({Atom{"a", Value::Int(1)}, Atom{"a", Value::Int(2)}},
                    {Atom{"b", Value::Int(3)}}),
               "binds an attribute twice");
}

}  // namespace
}  // namespace eid
