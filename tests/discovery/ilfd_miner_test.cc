#include "discovery/ilfd_miner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

bool ContainsIlfd(const std::vector<MinedIlfd>& mined, const std::string& text) {
  Result<Ilfd> target = ParseIlfd(text);
  EXPECT_TRUE(target.ok());
  for (const MinedIlfd& m : mined) {
    if (m.ilfd == *target) return true;
  }
  return false;
}

TEST(IlfdMinerTest, FindsTaxonomyRules) {
  Relation r = MakeRelation("R", {"speciality", "cuisine"}, {},
                            {{"Hunan", "Chinese"},
                             {"Hunan", "Chinese"},
                             {"Sichuan", "Chinese"},
                             {"Sichuan", "Chinese"},
                             {"Gyros", "Greek"},
                             {"Gyros", "Greek"}});
  std::vector<MinedIlfd> mined = MineIlfds(r);
  EXPECT_TRUE(ContainsIlfd(mined, "speciality=Hunan -> cuisine=Chinese"));
  EXPECT_TRUE(ContainsIlfd(mined, "speciality=Gyros -> cuisine=Greek"));
  // The reverse (cuisine=Chinese -> speciality=?) is contradicted.
  EXPECT_FALSE(ContainsIlfd(mined, "cuisine=Chinese -> speciality=Hunan"));
}

TEST(IlfdMinerTest, MinSupportFiltersNoise) {
  Relation r = MakeRelation("R", {"speciality", "cuisine"}, {},
                            {{"Hunan", "Chinese"},
                             {"Hunan", "Chinese"},
                             {"Gyros", "Greek"}});  // support 1
  MinerOptions opts;
  opts.min_support = 2;
  std::vector<MinedIlfd> mined = MineIlfds(r, opts);
  EXPECT_TRUE(ContainsIlfd(mined, "speciality=Hunan -> cuisine=Chinese"));
  EXPECT_FALSE(ContainsIlfd(mined, "speciality=Gyros -> cuisine=Greek"));
  opts.min_support = 1;
  mined = MineIlfds(r, opts);
  EXPECT_TRUE(ContainsIlfd(mined, "speciality=Gyros -> cuisine=Greek"));
}

TEST(IlfdMinerTest, SupportCountsAntecedentOccurrences) {
  Relation r = MakeRelation("R", {"a", "b"}, {},
                            {{"x", "1"}, {"x", "1"}, {"x", "1"}, {"y", "2"}});
  MinerOptions opts;
  opts.min_support = 1;
  std::vector<MinedIlfd> mined = MineIlfds(r, opts);
  bool found = false;
  for (const MinedIlfd& m : mined) {
    if (m.ilfd.ToString() == "a=x -> b=1") {
      found = true;
      EXPECT_EQ(m.support, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(IlfdMinerTest, NullsNeitherSupportNorRefute) {
  Relation r("R", Schema::OfStrings({"a", "b"}));
  EID_EXPECT_OK(r.InsertText({"x", "1"}));
  EID_EXPECT_OK(r.Insert(Row{Value::Str("x"), Value::Null()}));
  EID_EXPECT_OK(r.InsertText({"x", "1"}));
  MinerOptions opts;
  opts.min_support = 2;
  std::vector<MinedIlfd> mined = MineIlfds(r, opts);
  EXPECT_TRUE(ContainsIlfd(mined, "a=x -> b=\"1\""));
}

TEST(IlfdMinerTest, PairAntecedentsMineI5Shape) {
  // (name, street) -> speciality with name/street individually ambiguous.
  Relation r = MakeRelation("R", {"name", "street", "speciality"}, {},
                            {{"TwinCities", "Co.B2", "Hunan"},
                             {"TwinCities", "Co.B2", "Hunan"},
                             {"TwinCities", "Co.B3", "Sichuan"},
                             {"TwinCities", "Co.B3", "Sichuan"}});
  MinerOptions opts;
  opts.min_support = 2;
  opts.max_attribute_cardinality = 1;  // name/street too ambiguous alone
  std::vector<MinedIlfd> mined = MineIlfds(r, opts);
  EXPECT_TRUE(ContainsIlfd(
      mined, "name=TwinCities & street=Co.B2 -> speciality=Hunan"));
  // Single-attribute antecedents were suppressed by the cardinality cap
  // (and name=TwinCities -> speciality is contradicted anyway).
  for (const MinedIlfd& m : mined) {
    EXPECT_GE(m.ilfd.antecedent().size(), 1u);
  }
}

TEST(IlfdMinerTest, PruneImpliedRemovesRedundantPairRules) {
  Relation r = MakeRelation("R", {"speciality", "cuisine", "region"}, {},
                            {{"Hunan", "Chinese", "Asia"},
                             {"Hunan", "Chinese", "Asia"},
                             {"Gyros", "Greek", "Europe"},
                             {"Gyros", "Greek", "Europe"}});
  MinerOptions opts;
  opts.min_support = 2;
  opts.prune_implied = true;
  std::vector<MinedIlfd> pruned = MineIlfds(r, opts);
  opts.prune_implied = false;
  std::vector<MinedIlfd> raw = MineIlfds(r, opts);
  EXPECT_LT(pruned.size(), raw.size());
  // Everything raw is still implied by the pruned set.
  IlfdSet accepted;
  for (const MinedIlfd& m : pruned) accepted.Add(m.ilfd);
  for (const MinedIlfd& m : raw) {
    EXPECT_TRUE(accepted.Implies(m.ilfd)) << m.ilfd.ToString();
  }
}

TEST(IlfdMinerTest, ConsequentFilter) {
  Relation r = MakeRelation("R", {"a", "b", "c"}, {},
                            {{"x", "1", "p"}, {"x", "1", "p"}});
  MinerOptions opts;
  opts.min_support = 2;
  opts.consequent_attributes = {"b"};
  for (const MinedIlfd& m : MineIlfds(r, opts)) {
    EXPECT_EQ(m.ilfd.ConsequentAttributes(),
              (std::vector<std::string>{"b"}));
  }
}

TEST(IlfdMinerTest, MineIlfdSetHoldsOnTheMinedRelation) {
  Relation r = MakeRelation("R", {"name", "speciality", "cuisine"}, {},
                            {{"Wok", "Hunan", "Chinese"},
                             {"Jade", "Hunan", "Chinese"},
                             {"Olympia", "Gyros", "Greek"},
                             {"Athena", "Gyros", "Greek"},
                             {"Wok", "Sichuan", "Chinese"}});
  IlfdSet set = MineIlfdSet(r);
  // The set is the mined candidates, supports dropped, in mining order.
  std::vector<Ilfd> mined;
  for (const MinedIlfd& m : MineIlfds(r)) mined.push_back(m.ilfd);
  EXPECT_EQ(set.ilfds(), mined);
  EID_ASSERT_OK_AND_ASSIGN(Ilfd known,
                           ParseIlfd("speciality=Hunan -> cuisine=Chinese"));
  EXPECT_TRUE(set.Implies(known));
  ASSERT_FALSE(set.empty());
  for (const Ilfd& f : set.ilfds()) {
    for (size_t i = 0; i < r.size(); ++i) {
      EXPECT_TRUE(f.SatisfiedBy(r.tuple(i))) << f.ToString() << " row " << i;
    }
  }
}

TEST(IlfdMinerTest, ConfirmOnRejectsContradictedCandidates) {
  Relation train = MakeRelation("R", {"speciality", "cuisine"}, {},
                                {{"Hunan", "Chinese"}, {"Hunan", "Chinese"}});
  Relation witness_good = MakeRelation("W", {"speciality", "cuisine"}, {},
                                       {{"Hunan", "Chinese"}});
  Relation witness_bad = MakeRelation("W", {"speciality", "cuisine"}, {},
                                      {{"Hunan", "Thai"}});
  std::vector<MinedIlfd> mined = MineIlfds(train);
  EXPECT_FALSE(ConfirmOn(mined, witness_good).empty());
  EXPECT_TRUE(ContainsIlfd(ConfirmOn(mined, witness_good),
                           "speciality=Hunan -> cuisine=Chinese"));
  EXPECT_FALSE(ContainsIlfd(ConfirmOn(mined, witness_bad),
                            "speciality=Hunan -> cuisine=Chinese"));
}

TEST(IlfdMinerTest, MinedKnowledgeDrivesIdentification) {
  // End-to-end: mine the generator's taxonomy from the universe sample,
  // feed it to the identifier, and match as well as the true knowledge
  // allows for the taxonomy part.
  GeneratorConfig gen;
  gen.seed = 5;
  gen.overlap_entities = 30;
  gen.r_only_entities = 10;
  gen.s_only_entities = 10;
  gen.name_pool = 64;
  gen.street_pool = 100;
  gen.cities = 4;
  gen.speciality_pool = 6;
  gen.cuisines = 3;
  gen.ilfd_coverage = 1.0;
  EID_ASSERT_OK_AND_ASSIGN(GeneratedWorld world, GenerateWorld(gen));

  MinerOptions opts;
  opts.min_support = 2;
  opts.max_antecedent = 2;
  opts.max_attribute_cardinality = 12;
  std::vector<MinedIlfd> mined = MineIlfds(world.universe, opts);
  // The speciality -> cuisine taxonomy must be recovered for every
  // speciality with support >= 2.
  size_t taxonomy_rules = 0;
  for (const MinedIlfd& m : mined) {
    if (m.ilfd.AntecedentAttributes() ==
            std::vector<std::string>{"speciality"} &&
        m.ilfd.ConsequentAttributes() ==
            std::vector<std::string>{"cuisine"}) {
      ++taxonomy_rules;
      EXPECT_TRUE(world.ilfds.Implies(m.ilfd)) << m.ilfd.ToString();
    }
  }
  EXPECT_GT(taxonomy_rules, 0u);
}

}  // namespace
}  // namespace eid
