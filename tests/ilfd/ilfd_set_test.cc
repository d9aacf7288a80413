#include "ilfd/ilfd_set.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "workload/fixtures.h"

namespace eid {
namespace {

IlfdSet ChainSet() {
  IlfdSet set;
  EXPECT_TRUE(set.AddText("a=1 -> b=2").ok());
  EXPECT_TRUE(set.AddText("b=2 -> c=3").ok());
  return set;
}

bool ContainsAtom(const std::vector<Atom>& atoms, const std::string& attr,
                  const Value& value) {
  for (const Atom& a : atoms) {
    if (a.attribute == attr && a.value == value) return true;
  }
  return false;
}

TEST(IlfdSetTest, ConditionClosureFollowsChains) {
  IlfdSet set = ChainSet();
  std::vector<Atom> closure =
      set.ConditionClosure({Atom{"a", Value::Int(1)}});
  EXPECT_EQ(closure.size(), 3u);
  EXPECT_TRUE(ContainsAtom(closure, "c", Value::Int(3)));
}

TEST(IlfdSetTest, ClosureOfUnknownConditionIsItself) {
  IlfdSet set = ChainSet();
  std::vector<Atom> closure =
      set.ConditionClosure({Atom{"z", Value::Int(9)}});
  EXPECT_EQ(closure.size(), 1u);
}

TEST(IlfdSetTest, ImpliesTransitiveConsequence) {
  IlfdSet set = ChainSet();
  EID_ASSERT_OK_AND_ASSIGN(Ilfd target, ParseIlfd("a=1 -> c=3"));
  EXPECT_TRUE(set.Implies(target));
  EID_ASSERT_OK_AND_ASSIGN(Ilfd wrong, ParseIlfd("c=3 -> a=1"));
  EXPECT_FALSE(set.Implies(wrong));
}

TEST(IlfdSetTest, ImpliesTrivialWithUnknownAtoms) {
  IlfdSet set = ChainSet();
  EID_ASSERT_OK_AND_ASSIGN(Ilfd trivial, ParseIlfd("z=5 & w=6 -> z=5"));
  EXPECT_TRUE(set.Implies(trivial));
  EID_ASSERT_OK_AND_ASSIGN(Ilfd unknown, ParseIlfd("z=5 -> w=6"));
  EXPECT_FALSE(set.Implies(unknown));
}

TEST(IlfdSetTest, ProveReturnsVerifiableProof) {
  IlfdSet set = ChainSet();
  EID_ASSERT_OK_AND_ASSIGN(Ilfd target, ParseIlfd("a=1 -> c=3"));
  EID_ASSERT_OK_AND_ASSIGN(Proof proof, set.Prove(target));
  EXPECT_GE(proof.steps.size(), 3u);
  EXPECT_FALSE(set.Prove(Ilfd::Implies({Atom{"c", Value::Int(3)}},
                                       Atom{"a", Value::Int(1)}))
                   .ok());
}

TEST(IlfdSetTest, EquivalentToIsMutualImplication) {
  IlfdSet a = ChainSet();
  IlfdSet b;
  EXPECT_TRUE(b.AddText("b=2 -> c=3").ok());
  EXPECT_TRUE(b.AddText("a=1 -> b=2").ok());
  // Same ILFDs, different order: equivalent.
  EXPECT_TRUE(a.EquivalentTo(b));
  // Adding a derived ILFD keeps equivalence.
  EXPECT_TRUE(b.AddText("a=1 -> c=3").ok());
  EXPECT_TRUE(a.EquivalentTo(b));
  // New non-derivable knowledge breaks it.
  EXPECT_TRUE(b.AddText("q=7 -> r=8").ok());
  EXPECT_FALSE(a.EquivalentTo(b));
}

TEST(IlfdSetTest, IsRedundantDetectsImpliedIlfd) {
  IlfdSet set = ChainSet();
  size_t derived = 0;
  EID_ASSERT_OK_AND_ASSIGN(derived, set.AddText("a=1 -> c=3"));
  EXPECT_TRUE(set.IsRedundant(derived));
  EXPECT_FALSE(set.IsRedundant(0));
  EXPECT_FALSE(set.IsRedundant(1));
}

TEST(IlfdSetTest, MinimalCoverDropsRedundantIlfds) {
  IlfdSet set = ChainSet();
  EXPECT_TRUE(set.AddText("a=1 -> c=3").ok());  // redundant
  IlfdSet cover = set.MinimalCover();
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(cover.EquivalentTo(set));
}

TEST(IlfdSetTest, MinimalCoverRemovesExtraneousConditions) {
  IlfdSet set;
  EXPECT_TRUE(set.AddText("a=1 -> b=2").ok());
  // The x=9 conjunct is extraneous given a=1 -> b=2.
  EXPECT_TRUE(set.AddText("a=1 & x=9 -> b=2").ok());
  IlfdSet cover = set.MinimalCover();
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.ilfd(0).antecedent().size(), 1u);
  EXPECT_TRUE(cover.EquivalentTo(set));
}

TEST(IlfdSetTest, MinimalCoverDecomposesMultiConsequents) {
  IlfdSet set;
  EXPECT_TRUE(set.AddText("a=1 -> b=2 & c=3").ok());
  IlfdSet cover = set.MinimalCover();
  EXPECT_EQ(cover.size(), 2u);
  for (const Ilfd& f : cover.ilfds()) {
    EXPECT_EQ(f.consequent().size(), 1u);
  }
  EXPECT_TRUE(cover.EquivalentTo(set));
}

TEST(IlfdSetTest, DerivedIlfdsFindsPaperI9) {
  // I7: street=FrontAve. -> county=Ramsey
  // I8: name=It'sGreek & county=Ramsey -> speciality=Gyros
  // derived I9: name=It'sGreek & street=FrontAve. -> speciality=Gyros
  IlfdSet set = fixtures::Example3Ilfds();
  std::vector<Ilfd> derived = set.DerivedIlfds(3);
  Ilfd i9 = fixtures::Example3DerivedI9();
  EXPECT_NE(std::find(derived.begin(), derived.end(), i9), derived.end())
      << "derived set missing I9; got " << derived.size() << " candidates";
}

TEST(IlfdSetTest, DerivedIlfdsAreAllImplied) {
  IlfdSet set = fixtures::Example3Ilfds();
  for (const Ilfd& f : set.DerivedIlfds(3)) {
    EXPECT_TRUE(set.Implies(f)) << f.ToString();
    EXPECT_FALSE(f.IsTrivial()) << f.ToString();
  }
}

TEST(IlfdSetTest, ToStringNumbersIlfds) {
  IlfdSet set = ChainSet();
  std::string text = set.ToString();
  EXPECT_NE(text.find("I1: "), std::string::npos);
  EXPECT_NE(text.find("I2: "), std::string::npos);
}

TEST(IlfdSetTest, AtomIdsNameEachIlfdsConditions) {
  // Atoms shared across ILFDs keep one id. An antecedent lists its ids
  // ascending; a consequent atom is found by position in the ILFD's
  // canonical order, which need not be id order.
  IlfdSet set;
  ASSERT_TRUE(set.AddText("a=1 -> d=4").ok());
  ASSERT_TRUE(set.AddText("b=2 & a=1 -> d=4 & c=\"x\"").ok());
  ASSERT_TRUE(set.AddText("c=\"x\" -> e=2.5 & d=4").ok());
  for (size_t i = 0; i < set.size(); ++i) {
    const Ilfd& f = set.ilfd(i);
    const std::vector<AtomId>& body = set.AntecedentAtoms(i);
    ASSERT_EQ(body.size(), f.antecedent().size());
    EXPECT_TRUE(std::is_sorted(body.begin(), body.end()));
    for (const Atom& a : f.antecedent()) {
      const std::optional<AtomId> id = set.atoms().Find(a.attribute, a.value);
      ASSERT_TRUE(id.has_value());
      EXPECT_TRUE(std::find(body.begin(), body.end(), *id) != body.end());
    }
    for (size_t j = 0; j < f.consequent().size(); ++j) {
      const AtomId id = set.ConsequentAtom(i, j);
      EXPECT_EQ(set.atoms().atom(id), f.consequent()[j]) << i << "/" << j;
    }
  }
  // d=4 is interned (by ILFD 0) before c="x", yet ILFD 1 concludes c
  // first.
  EXPECT_LT(set.ConsequentAtom(1, 1), set.ConsequentAtom(1, 0));
  EXPECT_EQ(set.ConsequentAtom(1, 0), set.AntecedentAtoms(2)[0]);  // c=x
}

}  // namespace
}  // namespace eid
