#include "eid/multiway.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "../test_util.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

/// Three agency databases over the Example-3 restaurant world:
///   A(name, cuisine, street), B(name, speciality, county),
///   C(name, cuisine, speciality) — C overlaps both.
std::vector<Relation> ThreeSources() {
  Relation a = fixtures::Example3R();
  a.set_name("A");
  Relation b = fixtures::Example3S();
  b.set_name("B");
  Relation c = MakeRelation("C", {"name", "cuisine", "speciality"},
                            {"name", "cuisine"},
                            {{"TwinCities", "Chinese", "Hunan"},
                             {"VillageWok", "Chinese", "Cantonese"}});
  return {a, b, c};
}

MultiwayConfig Example3MultiwayConfig() {
  MultiwayConfig config;
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  return config;
}

TEST(MultiwayTest, RequiresTwoSourcesAndSomeRule) {
  Relation one = fixtures::Example3R();
  EXPECT_FALSE(IdentifyAll({one}, Example3MultiwayConfig()).ok());
  MultiwayConfig empty;
  EXPECT_FALSE(IdentifyAll(ThreeSources(), empty).ok());
}

TEST(MultiwayTest, ThreeWayClustersAreTransitive) {
  EID_ASSERT_OK_AND_ASSIGN(
      MultiwayResult result,
      IdentifyAll(ThreeSources(), Example3MultiwayConfig()));
  EXPECT_TRUE(result.Sound()) << result.transitivity.ToString() << " / "
                              << result.consistency.ToString();
  // A0 (TwinCities Chinese, derives Hunan), B0 (TwinCities Hunan, derives
  // Chinese) and C0 (TwinCities Chinese Hunan) must form one 3-cluster.
  bool found_triple = false;
  for (const EntityCluster& c : result.clusters) {
    if (c.members.size() == 3) {
      found_triple = true;
      EXPECT_EQ(c.members[0], (MemberRef{0, 0}));
      EXPECT_EQ(c.members[1], (MemberRef{1, 0}));
      EXPECT_EQ(c.members[2], (MemberRef{2, 0}));
    }
  }
  EXPECT_TRUE(found_triple);
  // Every tuple is covered exactly once.
  size_t covered = 0;
  for (const EntityCluster& c : result.clusters) covered += c.members.size();
  EXPECT_EQ(covered, 5u + 4u + 2u);
}

TEST(MultiwayTest, PairwiseMatchesStillPresent) {
  EID_ASSERT_OK_AND_ASSIGN(
      MultiwayResult result,
      IdentifyAll(ThreeSources(), Example3MultiwayConfig()));
  // It'sGreek and Anjuman pair A with B only (C doesn't model them).
  size_t pairs = 0;
  for (const EntityCluster* c : result.MergedClusters()) {
    if (c->members.size() == 2) ++pairs;
  }
  EXPECT_EQ(pairs, 2u);
}

TEST(MultiwayTest, DistinctPairsRecorded) {
  EID_ASSERT_OK_AND_ASSIGN(
      MultiwayResult result,
      IdentifyAll(ThreeSources(), Example3MultiwayConfig()));
  EXPECT_FALSE(result.distinct_pairs.empty());
  // VillageWok-Cantonese in C is certified distinct from the Hunan tuple
  // in B (Cantonese entity vs Hunan entity): check some cross pair exists
  // touching relation 2.
  bool touches_c = false;
  for (const auto& [x, y] : result.distinct_pairs) {
    if (x.relation_index == 2 || y.relation_index == 2) touches_c = true;
  }
  EXPECT_TRUE(touches_c);
}

TEST(MultiwayTest, IntegratedTableCoalescesClusters) {
  std::vector<Relation> sources = ThreeSources();
  EID_ASSERT_OK_AND_ASSIGN(MultiwayResult result,
                           IdentifyAll(sources, Example3MultiwayConfig()));
  EID_ASSERT_OK_AND_ASSIGN(Relation table,
                           BuildMultiwayIntegratedTable(sources, result));
  EXPECT_EQ(table.size(), result.clusters.size());
  // The 3-cluster row carries street (from A), county (from B): fully
  // merged properties of one entity.
  bool found = false;
  for (size_t i = 0; i < table.size(); ++i) {
    TupleView t = table.tuple(i);
    if (t.GetOrNull("name").ToString() == "TwinCities" &&
        t.GetOrNull("speciality").ToString() == "Hunan") {
      found = true;
      EXPECT_EQ(t.GetOrNull("street").AsString(), "Co.B2");
      EXPECT_EQ(t.GetOrNull("county").AsString(), "Roseville");
      EXPECT_EQ(t.GetOrNull("cuisine").AsString(), "Chinese");
    }
  }
  EXPECT_TRUE(found);
}

TEST(MultiwayTest, TransitivityViolationDetected) {
  // A relation with two tuples that both chain-match tuples of the other
  // relations under a too-weak key.
  Relation a = MakeRelation("A", {"name", "street"}, {"name", "street"},
                            {{"Wok", "X"}, {"Wok", "Y"}});
  Relation b = MakeRelation("B", {"name", "city"}, {"name", "city"},
                            {{"Wok", "M"}});
  MultiwayConfig config;
  config.extended_key = ExtendedKey({"name"});
  EID_ASSERT_OK_AND_ASSIGN(MultiwayResult result, IdentifyAll({a, b}, config));
  EXPECT_FALSE(result.Sound());
  EXPECT_EQ(result.transitivity.code(), StatusCode::kUnsound);
}

TEST(MultiwayTest, ConsistencyViolationDetected) {
  Relation a = MakeRelation("A", {"name", "flag"}, {"name"},
                            {{"Wok", "p"}});
  Relation b = MakeRelation("B", {"name", "flag"}, {"name"},
                            {{"Wok", "q"}});
  MultiwayConfig config;
  config.extended_key = ExtendedKey({"name"});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule("d", "e1.flag = \"p\" & e2.flag = \"q\""));
  config.distinctness_rules.push_back(rule);
  EID_ASSERT_OK_AND_ASSIGN(MultiwayResult result, IdentifyAll({a, b}, config));
  EXPECT_FALSE(result.consistency.ok());
}

TEST(MultiwayTest, ConflictingClusterValuesFailIntegration) {
  Relation a = MakeRelation("A", {"name", "city"}, {"name"},
                            {{"Wok", "Mpls"}});
  Relation b = MakeRelation("B", {"name", "city"}, {"name"},
                            {{"Wok", "St.Paul"}});
  MultiwayConfig config;
  config.extended_key = ExtendedKey({"name"});
  EID_ASSERT_OK_AND_ASSIGN(MultiwayResult result, IdentifyAll({a, b}, config));
  std::vector<Relation> sources = {a, b};
  Result<Relation> table = BuildMultiwayIntegratedTable(sources, result);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kFailedPrecondition);
}

// Identity rules alone drive the clusters: with no extended key, the
// clusters of three generated sources (R, S, and the universe's
// (name, cuisine, city) projection of every third entity) equal union-find
// over a nested IdentityRule::Matches loop on the extended relations, and
// the consistency verdict follows from those clusters and the recorded
// distinct pairs.
TEST(MultiwayTest, IdentityRulesClusterAsNestedLoopUnionFind) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratorConfig gen;
    gen.seed = seed;
    gen.overlap_entities = 24;
    gen.r_only_entities = 12;
    gen.s_only_entities = 12;
    gen.name_pool = 12;  // homonyms: the rules' name join is not enough
    gen.ilfd_coverage = 0.7;
    EID_ASSERT_OK_AND_ASSIGN(GeneratedWorld world, GenerateWorld(gen));
    Relation c("C", Schema::OfStrings({"name", "cuisine", "city"}));
    const Schema& u = world.universe.schema();
    for (size_t i = 0; i < world.universe.size(); i += 3) {
      const Row& row = world.universe.row(i);
      EID_ASSERT_OK(c.Insert(Row{row[*u.IndexOf("name")],
                                 row[*u.IndexOf("cuisine")],
                                 row[*u.IndexOf("city")]}));
    }
    const std::vector<Relation> sources = {world.r, world.s, c};
    MultiwayConfig config;
    config.ilfds = world.ilfds;
    config.extension.derive_all = true;
    for (const auto& [name, text] :
         {std::pair{"name_cuisine_eq",
                    "e1.name = e2.name & e1.cuisine = e2.cuisine"},
          std::pair{"name_city_eq", "e1.name = e2.name & e1.city = e2.city"}}) {
      EID_ASSERT_OK_AND_ASSIGN(IdentityRule rule,
                               ParseIdentityRule(name, text));
      config.identity_rules.push_back(rule);
    }
    EID_ASSERT_OK_AND_ASSIGN(MultiwayResult result,
                             IdentifyAll(sources, config));

    // The oracle: every rule on every cross-source pair, merged.
    std::vector<size_t> offset = {0};
    for (const Relation& rel : result.extended) {
      offset.push_back(offset.back() + rel.size());
    }
    std::vector<size_t> parent(offset.back());
    std::iota(parent.begin(), parent.end(), size_t{0});
    auto find = [&](size_t x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    size_t merges = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = i + 1; j < sources.size(); ++j) {
        const Relation& a = result.extended[i];
        const Relation& b = result.extended[j];
        for (size_t x = 0; x < a.size(); ++x) {
          for (size_t y = 0; y < b.size(); ++y) {
            for (const IdentityRule& rule : config.identity_rules) {
              if (rule.Matches(a.tuple(x), b.tuple(y)) == Truth::kTrue) {
                parent[find(offset[i] + x)] = find(offset[j] + y);
                ++merges;
                break;
              }
            }
          }
        }
      }
    }
    ASSERT_GT(merges, 0u);
    std::vector<std::vector<MemberRef>> want(offset.back());
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t r = 0; r < sources[i].size(); ++r) {
        want[find(offset[i] + r)].push_back(MemberRef{i, r});
      }
    }
    want.erase(std::remove_if(want.begin(), want.end(),
                              [](const std::vector<MemberRef>& members) {
                                return members.empty();
                              }),
               want.end());
    std::sort(want.begin(), want.end());
    std::vector<std::vector<MemberRef>> got;
    for (const EntityCluster& cluster : result.clusters) {
      got.push_back(cluster.members);
    }
    EXPECT_EQ(got, want);

    bool inconsistent = false;
    for (const auto& [x, y] : result.distinct_pairs) {
      inconsistent =
          inconsistent || find(offset[x.relation_index] + x.row_index) ==
                              find(offset[y.relation_index] + y.row_index);
    }
    EXPECT_FALSE(result.distinct_pairs.empty());
    EXPECT_EQ(result.consistency.ok(), !inconsistent);
  }
}

}  // namespace
}  // namespace eid
