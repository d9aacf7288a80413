#include "eid/incremental.h"

#include <gtest/gtest.h>

#include <string>

#include "../test_util.h"
#include "exec/amq_filter.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

IdentifierConfig Example3Config() {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  return config;
}

Relation EmptyLike(const Relation& model) {
  Relation out(model.name(), model.schema());
  for (const KeyDef& k : model.keys()) {
    std::vector<std::string> names;
    for (size_t i : k.attribute_indices) {
      names.push_back(model.schema().attribute(i).name);
    }
    EXPECT_TRUE(out.DeclareKey(names).ok());
  }
  return out;
}

Result<IncrementalIdentifier> MakeExample3Incremental() {
  return IncrementalIdentifier::Create(Example3Config(),
                                       EmptyLike(fixtures::Example3R()),
                                       EmptyLike(fixtures::Example3S()));
}

TEST(IncrementalTest, ReplayingExample3MatchesBatch) {
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier inc,
                           MakeExample3Incremental());
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  for (const Row& row : r.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertR(row));
    (void)id;
  }
  for (const Row& row : s.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertS(row));
    (void)id;
  }
  EXPECT_EQ(inc.r_size(), 5u);
  EXPECT_EQ(inc.s_size(), 4u);
  EID_EXPECT_OK(inc.Uniqueness());

  EntityIdentifier batch(Example3Config());
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           batch.Identify(r, s));
  EID_ASSERT_OK_AND_ASSIGN(Relation inc_mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation ref_mt, reference.MatchingRelation("MT"));
  EXPECT_TRUE(inc_mt.RowsEqualUnordered(ref_mt));
  EXPECT_EQ(inc.Partition().matched, reference.partition.matched);
  EXPECT_EQ(inc.Partition().non_matched, reference.partition.non_matched);
  EXPECT_EQ(inc.Partition().undetermined, reference.partition.undetermined);
}

TEST(IncrementalTest, InsertionOrderIndependent) {
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier forward,
                           MakeExample3Incremental());
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier backward,
                           MakeExample3Incremental());
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  for (const Row& row : s.rows()) EXPECT_TRUE(forward.InsertS(row).ok());
  for (const Row& row : r.rows()) EXPECT_TRUE(forward.InsertR(row).ok());
  for (size_t i = r.size(); i-- > 0;) {
    EXPECT_TRUE(backward.InsertR(r.row(i)).ok());
  }
  for (size_t i = s.size(); i-- > 0;) {
    EXPECT_TRUE(backward.InsertS(s.row(i)).ok());
  }
  EID_ASSERT_OK_AND_ASSIGN(Relation a, forward.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation b, backward.MatchingRelation());
  EXPECT_TRUE(a.RowsEqualUnordered(b));
}

TEST(IncrementalTest, DeleteRetractsMatches) {
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier inc,
                           MakeExample3Incremental());
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  std::vector<size_t> r_ids, s_ids;
  for (const Row& row : r.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertR(row));
    r_ids.push_back(id);
  }
  for (const Row& row : s.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertS(row));
    s_ids.push_back(id);
  }
  EXPECT_EQ(inc.Partition().matched, 3u);
  // Delete the Anjuman R tuple: its match disappears.
  EID_EXPECT_OK(inc.DeleteR(r_ids[3]));
  EXPECT_EQ(inc.Partition().matched, 2u);
  EXPECT_FALSE(inc.MatchOfS(s_ids[3]).has_value());
  // Deleting twice is NotFound.
  EXPECT_EQ(inc.DeleteR(r_ids[3]).code(), StatusCode::kNotFound);
  // Re-inserting restores the match (under a fresh id).
  EID_ASSERT_OK_AND_ASSIGN(size_t new_id, inc.InsertR(r.row(3)));
  EXPECT_EQ(inc.Partition().matched, 3u);
  EXPECT_EQ(inc.MatchOfR(new_id), s_ids[3]);
}

TEST(IncrementalTest, UniquenessViolationAndRecoveryOnDelete) {
  // Extended key {name} and two same-name S tuples: the second candidate
  // is shadowed; deleting the first S tuple lets it surface.
  Relation r_proto = MakeRelation("R", {"name", "street"}, {"name", "street"},
                                  {});
  Relation s_proto = MakeRelation("S", {"name", "city"}, {"name", "city"},
                                  {});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r_proto, s_proto);
  config.extended_key = ExtendedKey({"name"});
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, r_proto, s_proto));
  EID_ASSERT_OK_AND_ASSIGN(size_t r0,
                           inc.InsertR(Row{Value::Str("Wok"), Value::Str("A")}));
  EID_ASSERT_OK_AND_ASSIGN(size_t s0,
                           inc.InsertS(Row{Value::Str("Wok"), Value::Str("X")}));
  EID_ASSERT_OK_AND_ASSIGN(size_t s1,
                           inc.InsertS(Row{Value::Str("Wok"), Value::Str("Y")}));
  EXPECT_EQ(inc.Uniqueness().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(inc.MatchOfR(r0), s0);  // greedy: first candidate kept
  EID_EXPECT_OK(inc.DeleteS(s0));
  EID_EXPECT_OK(inc.Uniqueness());
  EXPECT_EQ(inc.MatchOfR(r0), s1);  // shadowed candidate surfaced
}

TEST(IncrementalTest, KeyViolationsRejectedWithoutStateChange) {
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier inc,
                           MakeExample3Incremental());
  Relation r = fixtures::Example3R();
  EXPECT_TRUE(inc.InsertR(r.row(0)).ok());
  // Same (name, cuisine) key again.
  Result<size_t> dup = inc.InsertR(
      Row{Value::Str("TwinCities"), Value::Str("Chinese"), Value::Str("Z")});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(inc.r_size(), 1u);
  // Key slot frees after deletion.
  EID_EXPECT_OK(inc.DeleteR(0));
  EXPECT_TRUE(inc.InsertR(Row{Value::Str("TwinCities"), Value::Str("Chinese"),
                              Value::Str("Z")})
                  .ok());
}

TEST(IncrementalTest, NegativePairsTrackDistinctnessRules) {
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier inc,
                           MakeExample3Incremental());
  // R: TwinCities Chinese (derives speciality=Hunan via I5).
  EXPECT_TRUE(inc.InsertR(fixtures::Example3R().row(0)).ok());
  // S: the Sichuan tuple — certified distinct from the Hunan one.
  EXPECT_TRUE(inc.InsertS(fixtures::Example3S().row(1)).ok());
  EXPECT_EQ(inc.Decide(0, 0), MatchDecision::kNonMatch);
  EXPECT_EQ(inc.Partition().non_matched, 1u);
}

TEST(IncrementalTest, RandomReplayEquivalentToBatch) {
  // Insert all tuples of a generated world, delete a third, re-insert
  // some; final state must equal batch identification of the live rows.
  GeneratorConfig gen;
  gen.seed = 77;
  gen.overlap_entities = 24;
  gen.r_only_entities = 12;
  gen.s_only_entities = 12;
  gen.name_pool = 48;
  gen.street_pool = 120;
  gen.cities = 6;
  gen.speciality_pool = 16;
  gen.cuisines = 5;
  gen.ilfd_coverage = 1.0;
  EID_ASSERT_OK_AND_ASSIGN(GeneratedWorld world, GenerateWorld(gen));

  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;

  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(world.r),
                                    EmptyLike(world.s)));
  std::vector<size_t> r_ids, s_ids;
  for (const Row& row : world.r.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertR(row));
    r_ids.push_back(id);
  }
  for (const Row& row : world.s.rows()) {
    EID_ASSERT_OK_AND_ASSIGN(size_t id, inc.InsertS(row));
    s_ids.push_back(id);
  }
  // Delete every third R tuple and every fourth S tuple.
  Relation live_r = EmptyLike(world.r);
  Relation live_s = EmptyLike(world.s);
  for (size_t i = 0; i < r_ids.size(); ++i) {
    if (i % 3 == 0) {
      EID_EXPECT_OK(inc.DeleteR(r_ids[i]));
    } else {
      EID_EXPECT_OK(live_r.Insert(world.r.row(i)));
    }
  }
  for (size_t i = 0; i < s_ids.size(); ++i) {
    if (i % 4 == 0) {
      EID_EXPECT_OK(inc.DeleteS(s_ids[i]));
    } else {
      EID_EXPECT_OK(live_s.Insert(world.s.row(i)));
    }
  }
  EntityIdentifier batch(config);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           batch.Identify(live_r, live_s));
  EID_ASSERT_OK_AND_ASSIGN(Relation inc_mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation ref_mt, reference.MatchingRelation("MT"));
  EXPECT_TRUE(inc_mt.RowsEqualUnordered(ref_mt))
      << "incremental MT (" << inc_mt.size() << ") != batch MT ("
      << ref_mt.size() << ")";
  EXPECT_EQ(inc.Partition().non_matched, reference.partition.non_matched);
}

TEST(IncrementalTest, DeletingACollidingNameKeepsDistinctnessPairs) {
  // Regression: the session once guarded its bucket probes with a
  // cuckoo AMQ filter per side whose delete scanned levels oldest first.
  // Names A and B sharing a fingerprint and a bucket pair under level 0's
  // small mask, but not under the larger masks of later levels, break
  // it: A's copy sits in level 0, B's lands in a later level, and
  // deleting B cleared A's copy instead, so the S-side insert of A below
  // skipped the live R row holding A and lost its distinctness pair.
  Relation r_model = MakeRelation("R", {"name", "city"}, {}, {});
  Relation s_model = MakeRelation("S", {"name", "city"}, {}, {});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r_model, s_model);
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule("same_name_other_city",
                            "e1.name = e2.name & e1.city != e2.city"));
  config.distinctness_rules.push_back(rule);
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(r_model),
                                    EmptyLike(s_model)));

  // 1. A and B: a default filter holding only A reports B present, and a
  // filter with any later level's geometry holding only B reports A
  // absent.
  std::optional<size_t> name_col = inc.LiveR().schema().IndexOf("name");
  ASSERT_TRUE(name_col.has_value());
  auto key = [&](const std::string& name) {
    return exec::FingerprintKey(*name_col, ValueHash{}(Value::String(name)));
  };
  const exec::AmqOptions defaults;
  auto later_levels_separate = [&](const std::string& a,
                                   const std::string& b) {
    for (int log2 = defaults.initial_buckets_log2 + 1;
         log2 <= defaults.max_level_buckets_log2; ++log2) {
      exec::AmqOptions level = defaults;
      level.initial_buckets_log2 = log2;
      level.max_level_buckets_log2 = log2;
      exec::AmqFilter holding_b(level);
      holding_b.Insert(key(b));
      if (holding_b.Contains(key(a))) return false;
    }
    return true;
  };
  const std::string a = "anna";
  exec::AmqFilter holding_a;
  holding_a.Insert(key(a));
  std::string b;
  for (size_t i = 0; i < 8000000 && b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    if (holding_a.Contains(key(candidate)) &&
        later_levels_separate(a, candidate)) {
      b = candidate;
    }
  }
  ASSERT_FALSE(b.empty()) << "no fingerprint collision found";

  Relation live_r = EmptyLike(r_model);
  Relation live_s = EmptyLike(s_model);
  auto insert_r = [&](const std::string& name) -> size_t {
    Row row{Value::String(name), Value::Str("Oslo")};
    Result<size_t> id = inc.InsertR(row);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : SIZE_MAX;
  };
  // 2. A, then 3. enough other names to overflow level 0 (256 slots).
  EID_ASSERT_OK(live_r.Insert(Row{Value::String(a), Value::Str("Oslo")}));
  const size_t a_id = insert_r(a);
  for (size_t i = 0; i < 300; ++i) {
    const std::string name = "filler" + std::to_string(i);
    EID_ASSERT_OK(live_r.Insert(Row{Value::String(name), Value::Str("Oslo")}));
    insert_r(name);
  }
  // 4. B in, B out.
  const size_t b_id = insert_r(b);
  EID_ASSERT_OK(inc.DeleteR(b_id));
  // 5. A on the S side, in another city: distinct from R's A.
  Row s_row{Value::String(a), Value::Str("Lima")};
  EID_ASSERT_OK(live_s.Insert(s_row));
  EID_ASSERT_OK_AND_ASSIGN(size_t s_id, inc.InsertS(s_row));

  // 6. MT and NMT equal a batch Identify over the live rows (R ids
  // 0..300 are live rows 0..300 in order; B's id 301 is deleted).
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult reference,
                           EntityIdentifier(config).Identify(live_r, live_s));
  EXPECT_EQ(reference.Decide(a_id, 0), MatchDecision::kNonMatch);
  EXPECT_EQ(inc.Decide(a_id, s_id), MatchDecision::kNonMatch);
  for (size_t r = 0; r < live_r.size(); ++r) {
    EXPECT_EQ(inc.Decide(r, s_id), reference.Decide(r, 0)) << "R" << r;
  }
  EID_ASSERT_OK_AND_ASSIGN(Relation inc_mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation ref_mt, reference.MatchingRelation("MT"));
  EXPECT_TRUE(inc_mt.RowsEqualUnordered(ref_mt));
  EXPECT_EQ(inc.Partition().matched, reference.partition.matched);
  EXPECT_EQ(inc.Partition().non_matched, reference.partition.non_matched);
}

}  // namespace
}  // namespace eid
