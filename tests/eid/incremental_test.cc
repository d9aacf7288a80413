#include "eid/incremental.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "../test_util.h"
#include "eid/reference.h"
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

TEST(IncrementalTest, KeyJoinCandidatesMatchBeforeIdentityRules) {
  // Batch Identify adds every extended-key join pair before any identity
  // rule pair. R0 joins S1 on the key {name, a}, while the identity rule
  // links R0 to S0: both runs must keep R0-S1 and report S0's loss.
  Relation r_proto = MakeRelation("R", {"name", "a", "b"}, {"name", "a"}, {});
  Relation s_proto = MakeRelation("S", {"name", "a", "b"}, {"name", "a"}, {});
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r_proto, s_proto);
  config.extended_key = ExtendedKey({"name", "a"});
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule same_b,
      ParseIdentityRule("same_b", "e1.name = e2.name & e1.b = e2.b"));
  config.identity_rules.push_back(same_b);
  const Row r0_row{Value::Str("N"), Value::Str("x"), Value::Str("p")};
  const Row s0_row{Value::Str("N"), Value::Str("y"), Value::Str("p")};
  const Row s1_row{Value::Str("N"), Value::Str("x"), Value::Str("q")};

  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, r_proto, s_proto));
  EID_ASSERT_OK_AND_ASSIGN(size_t r0, inc.InsertR(r0_row));
  EID_ASSERT_OK_AND_ASSIGN(size_t s0, inc.InsertS(s0_row));
  EID_ASSERT_OK_AND_ASSIGN(size_t s1, inc.InsertS(s1_row));
  EXPECT_EQ(inc.MatchOfR(r0), s1);
  EXPECT_EQ(inc.MatchOfS(s0), std::nullopt);
  EXPECT_EQ(inc.Uniqueness().code(), StatusCode::kConstraintViolation);

  Relation r = r_proto;
  Relation s = s_proto;
  EID_ASSERT_OK(r.Insert(r0_row));
  EID_ASSERT_OK(s.Insert(s0_row));
  EID_ASSERT_OK(s.Insert(s1_row));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult batch,
                           EntityIdentifier(config).Identify(r, s));
  EXPECT_EQ(batch.Decide(0, 1), MatchDecision::kMatch);
  EXPECT_FALSE(batch.uniqueness.ok());
  EID_ASSERT_OK_AND_ASSIGN(Relation inc_mt, inc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation batch_mt, batch.MatchingRelation("MT"));
  EXPECT_TRUE(inc_mt.RowsEqualUnordered(batch_mt));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult ref,
                           reference::Identify(config, r, s));
  EXPECT_EQ(ref.matching.pairs(), batch.matching.pairs());
  EXPECT_EQ(ref.uniqueness, batch.uniqueness);

  // Deleting the key-join partner lets the identity candidate match.
  EID_ASSERT_OK(inc.DeleteS(s1));
  EXPECT_EQ(inc.MatchOfR(r0), s0);
  EID_EXPECT_OK(inc.Uniqueness());
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
  // Every row error carries Relation::Insert's code and message: the
  // duplicate above, an arity mismatch, a type mismatch, a NULL key.
  Relation holder = EmptyLike(r);
  EID_ASSERT_OK(holder.Insert(r.row(0)));
  const Row bad_rows[] = {
      Row{Value::Str("TwinCities"), Value::Str("Chinese"), Value::Str("Z")},
      Row{Value::Str("Ching"), Value::Str("Chinese")},
      Row{Value::Str("Ching"), Value::Int(7), Value::Str("Z")},
      Row{Value::Null(), Value::Str("Chinese"), Value::Str("Z")},
  };
  for (const Row& row : bad_rows) {
    EXPECT_EQ(inc.InsertR(row).status(), holder.Insert(row));
  }
  EXPECT_EQ(inc.r_size(), 1u);
  // Key slot frees after deletion.
  EID_EXPECT_OK(inc.DeleteR(0));
  EXPECT_TRUE(inc.InsertR(Row{Value::Str("TwinCities"), Value::Str("Chinese"),
                              Value::Str("Z")})
                  .ok());

  // Doubles that print alike under "%g" are neither duplicate keys nor
  // equal extended-key values, exactly as in batch Identify and the
  // reference: R 0.1234567 matches nothing, R 0.1234568 matches S's.
  const Schema doubles({Attribute{"x", ValueType::kDouble}});
  Relation dr("R", doubles);
  Relation ds("S", doubles);
  EID_ASSERT_OK(dr.DeclareKey({"x"}));
  EID_ASSERT_OK(ds.DeclareKey({"x"}));
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(dr, ds);
  config.extended_key = ExtendedKey({"x"});
  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier dinc,
                           IncrementalIdentifier::Create(config, dr, ds));
  const Row low{Value::Double(0.1234567)};
  const Row high{Value::Double(0.1234568)};
  EID_ASSERT_OK_AND_ASSIGN(size_t r_low, dinc.InsertR(low));
  EID_ASSERT_OK_AND_ASSIGN(size_t s_high, dinc.InsertS(high));
  EXPECT_FALSE(dinc.MatchOfR(r_low).has_value());
  EID_ASSERT_OK_AND_ASSIGN(size_t r_high, dinc.InsertR(high));
  EXPECT_EQ(dinc.MatchOfR(r_high), s_high);
  EXPECT_EQ(dinc.MatchOfS(s_high), r_high);
  EID_ASSERT_OK(dr.Insert(low));
  EID_ASSERT_OK(dr.Insert(high));
  EID_ASSERT_OK(ds.Insert(high));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult batch,
                           EntityIdentifier(config).Identify(dr, ds));
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult ref,
                           reference::Identify(config, dr, ds));
  EXPECT_EQ(batch.matching.pairs(), (std::vector<TuplePair>{{1, 0}}));
  EXPECT_EQ(ref.matching.pairs(), batch.matching.pairs());
  EID_ASSERT_OK_AND_ASSIGN(Relation inc_mt, dinc.MatchingRelation());
  EID_ASSERT_OK_AND_ASSIGN(Relation batch_mt, batch.MatchingRelation("MT"));
  EXPECT_TRUE(inc_mt.RowsEqualUnordered(batch_mt));
}

TEST(IncrementalTest, DerivationConflictRejectedWithoutStateChange) {
  // I5 derives speciality=Hunan for (TwinCities, Co.B2); a second ILFD
  // derives Sichuan for the same antecedent, which ConflictPolicy::kError
  // rejects. The rejected insert must leave no trace: no live row, no
  // pair, no consumed id and no occupied key.
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config = Example3Config();
  EID_ASSERT_OK_AND_ASSIGN(
      Ilfd clash,
      ParseIlfd("name=TwinCities & street=Co.B2 -> speciality=Sichuan"));
  config.ilfds.Add(clash);
  config.matcher_options.extension.derivation.conflict_policy =
      ConflictPolicy::kError;
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(r), EmptyLike(s)));
  for (size_t i = 1; i < r.size(); ++i) {
    EID_ASSERT_OK(inc.InsertR(r.row(i)).status());
  }
  for (const Row& row : s.rows()) EID_ASSERT_OK(inc.InsertS(row).status());
  const PairPartition before = inc.Partition();
  ASSERT_GT(before.matched, 0u);
  ASSERT_GT(before.non_matched, 0u);

  Result<size_t> rejected = inc.InsertR(r.row(0));  // TwinCities, Co.B2
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kConstraintViolation);
  EXPECT_NE(rejected.status().message().find(
                "ILFD derivation conflict on attribute 'speciality'"),
            std::string::npos)
      << rejected.status().ToString();
  // The reference's extension of that one row fails with the same status.
  Relation lone = EmptyLike(r);
  EID_ASSERT_OK(lone.Insert(r.row(0)));
  Result<ExtensionResult> ref = reference::ExtendRelation(
      lone, Side::kR, config.correspondence, *config.extended_key,
      config.ilfds, config.matcher_options.extension);
  EXPECT_EQ(rejected.status(), ref.status());
  EXPECT_EQ(inc.r_size(), r.size() - 1);
  const PairPartition after = inc.Partition();
  EXPECT_EQ(after.total, before.total);
  EXPECT_EQ(after.matched, before.matched);
  EXPECT_EQ(after.non_matched, before.non_matched);
  EXPECT_EQ(after.undetermined, before.undetermined);
  EID_EXPECT_OK(inc.Uniqueness());

  // The same (name, cuisine) key on another street derives nothing
  // conflicting: it inserts, under the id the rejected row did not use.
  EID_ASSERT_OK_AND_ASSIGN(
      size_t id, inc.InsertR(Row{Value::Str("TwinCities"),
                                 Value::Str("Chinese"),
                                 Value::Str("Co.B3")}));
  EXPECT_EQ(id, r.size() - 1);
  EXPECT_EQ(inc.r_size(), r.size());
}

TEST(IncrementalTest, WronglyTypedDerivedValueRejectedLikeBatch) {
  // The ILFD derives the int 7 into the string column `code`. Batch
  // extension rejects the run; the session rejects the insert with the
  // same status, and the rejected row leaves no trace.
  const Schema schema({Attribute{"name", ValueType::kString},
                       Attribute{"code", ValueType::kString}});
  Relation r("R", schema);
  Relation s("S", schema);
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = ExtendedKey({"name", "code"});
  EID_ASSERT_OK_AND_ASSIGN(Ilfd seven, ParseIlfd("name=X -> code=7"));
  config.ilfds.Add(seven);
  EID_ASSERT_OK_AND_ASSIGN(
      IncrementalIdentifier inc,
      IncrementalIdentifier::Create(config, EmptyLike(r), EmptyLike(s)));
  const Row bad{Value::Str("X"), Value::Null()};
  EID_ASSERT_OK(r.Insert(bad));
  const Result<IdentificationResult> batch =
      EntityIdentifier(config).Identify(r, s);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status(), reference::Identify(config, r, s).status());

  const Result<size_t> rejected = inc.InsertR(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status(), batch.status());
  EXPECT_EQ(inc.r_size(), 0u);
  EXPECT_EQ(inc.LiveR().size(), 0u);
  EID_ASSERT_OK_AND_ASSIGN(size_t id,
                           inc.InsertR(Row{Value::Str("Y"), Value::Null()}));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(inc.r_size(), 1u);
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

  // 1. A and B: "b310929" is the first name "b<i>" whose fingerprint
  // (column "name", default 12-bit cuckoo filter) collided with "anna"'s
  // in level 0 while later level geometries kept the two apart — found
  // once by search against that filter and fixed here, so the scenario
  // below replays the exact delete that used to lose A's copy.
  const std::string a = "anna";
  const std::string b = "b310929";

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

// --- Property: incremental equals batch under random interleavings ------

/// bench_snapshot's world shape at a small size: names shared by about
/// three entities (homonyms), so the identity and distinctness rules below
/// fire across entities and the uniqueness constraint is exercised. Small
/// city/speciality/cuisine pools make cross-entity firings common.
GeneratedWorld HomonymWorld(size_t per_side, uint64_t seed) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.overlap_entities = per_side / 2;
  gen.r_only_entities = per_side / 2;
  gen.s_only_entities = per_side / 2;
  gen.name_pool = per_side / 2;
  gen.street_pool = per_side * 3;
  gen.cities = 6;
  gen.speciality_pool = 24;
  gen.cuisines = 4;
  gen.ilfd_coverage = 0.75;
  Result<GeneratedWorld> world = GenerateWorld(gen);
  EID_CHECK(world.ok());
  return std::move(world).value();
}

/// The bench_snapshot session: three identity rules and their three
/// same-name distinctness complements, with the extended key {name,
/// speciality} (`keyed`) or without one. Keyed, the extension derives only
/// the key, so the cuisine and city rules have no column on one side and
/// only the speciality rules fire; unkeyed, every derivable attribute is
/// derived and all six rules fire across homonyms. Neither lets an
/// identity rule compete with a different key-join candidate;
/// CompetingKeyedConfig below does.
IdentifierConfig HomonymConfig(const GeneratedWorld& world, bool keyed) {
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  if (keyed) config.extended_key = ExtendedKey({"name", "speciality"});
  config.ilfds = world.ilfds;
  for (const char* attr : {"cuisine", "city", "speciality"}) {
    const std::string a = attr;
    Result<IdentityRule> same = ParseIdentityRule(
        "name_" + a + "_eq", "e1.name = e2.name & e1." + a + " = e2." + a);
    Result<DistinctnessRule> other = ParseDistinctnessRule(
        "same_name_other_" + a,
        "e1.name = e2.name & e1." + a + " != e2." + a);
    EID_CHECK(same.ok() && other.ok());
    config.identity_rules.push_back(*same);
    config.distinctness_rules.push_back(*other);
  }
  config.distinctness_from_ilfds = false;
  config.matcher_options.threads = 1;
  return config;
}

/// One side of a session as the stream sees it: which world row each
/// stable id holds and which ids are live.
struct StreamSide {
  const Relation* rows = nullptr;
  std::vector<size_t> row_of_id;                // every id ever assigned
  std::vector<bool> alive;                      // by id
  std::vector<std::optional<size_t>> live_id;   // by world row
};

/// The first difference between `inc` and eid::reference::Identify (the
/// batch definition) over the live rows in id order, or "" when they
/// agree.
std::string CompareWithBatch(const IncrementalIdentifier& inc,
                             const IdentifierConfig& config,
                             const StreamSide& r, const StreamSide& s) {
  // Live ids ascending, and each live id's row index in the batch input.
  std::vector<size_t> r_live, s_live;
  std::vector<size_t> r_index(r.alive.size(), SIZE_MAX);
  std::vector<size_t> s_index(s.alive.size(), SIZE_MAX);
  Relation live_r = EmptyLike(*r.rows);
  Relation live_s = EmptyLike(*s.rows);
  for (size_t id = 0; id < r.alive.size(); ++id) {
    if (!r.alive[id]) continue;
    r_index[id] = r_live.size();
    r_live.push_back(id);
    if (!live_r.Insert(r.rows->row(r.row_of_id[id])).ok()) {
      return "live R rows violate their key";
    }
  }
  for (size_t id = 0; id < s.alive.size(); ++id) {
    if (!s.alive[id]) continue;
    s_index[id] = s_live.size();
    s_live.push_back(id);
    if (!live_s.Insert(s.rows->row(s.row_of_id[id])).ok()) {
      return "live S rows violate their key";
    }
  }
  Result<IdentificationResult> batch =
      reference::Identify(config, live_r, live_s);
  if (!batch.ok()) return "reference Identify: " + batch.status().ToString();
  const IdentificationResult& ref = *batch;

  if (inc.r_size() != r_live.size() || inc.s_size() != s_live.size()) {
    return "live sizes differ";
  }
  if (inc.LiveR().rows() != ref.r_extended.rows()) return "LiveR differs";
  if (inc.LiveS().rows() != ref.s_extended.rows()) return "LiveS differs";
  Result<Relation> inc_mt = inc.MatchingRelation();
  Result<Relation> ref_mt = ref.MatchingRelation("MT");
  if (!inc_mt.ok() || !ref_mt.ok()) return "MatchingRelation failed";
  if (!inc_mt->RowsEqualUnordered(*ref_mt)) {
    return "MatchingRelation differs (" + std::to_string(inc_mt->size()) +
           " rows vs " + std::to_string(ref_mt->size()) + ")";
  }
  const PairPartition p = inc.Partition();
  if (p.total != ref.partition.total || p.matched != ref.partition.matched ||
      p.non_matched != ref.partition.non_matched ||
      p.undetermined != ref.partition.undetermined) {
    return "Partition differs: matched " + std::to_string(p.matched) + "/" +
           std::to_string(ref.partition.matched) + ", non_matched " +
           std::to_string(p.non_matched) + "/" +
           std::to_string(ref.partition.non_matched);
  }
  if (inc.Uniqueness().ok() != ref.uniqueness.ok()) {
    return "Uniqueness differs: " + inc.Uniqueness().ToString() + " vs " +
           ref.uniqueness.ToString();
  }
  for (size_t i = 0; i < r_live.size(); ++i) {
    for (size_t j = 0; j < s_live.size(); ++j) {
      if (inc.Decide(r_live[i], s_live[j]) != ref.Decide(i, j)) {
        return "Decide(R" + std::to_string(r_live[i]) + ", S" +
               std::to_string(s_live[j]) + ") differs";
      }
    }
  }
  for (size_t i = 0; i < r_live.size(); ++i) {
    const std::optional<size_t> got = inc.MatchOfR(r_live[i]);
    const std::optional<size_t> want = ref.matching.MatchOfR(i);
    if (got.has_value() != want.has_value() ||
        (got.has_value() && (*got >= s_index.size() ||
                             s_index[*got] != *want ||
                             inc.MatchOfS(*got) != r_live[i]))) {
      return "MatchOfR(R" + std::to_string(r_live[i]) + ") differs";
    }
  }
  for (size_t j = 0; j < s_live.size(); ++j) {
    const std::optional<size_t> got = inc.MatchOfS(s_live[j]);
    const std::optional<size_t> want = ref.matching.MatchOfS(j);
    if (got.has_value() != want.has_value() ||
        (got.has_value() && (*got >= r_index.size() ||
                             r_index[*got] != *want))) {
      return "MatchOfS(S" + std::to_string(s_live[j]) + ") differs";
    }
  }
  // Dead and never-assigned ids have no match and no decision.
  for (size_t id = 0; id < r.alive.size() + 3; ++id) {
    if (id < r.alive.size() && r.alive[id]) continue;
    bool decided = inc.MatchOfR(id).has_value();
    for (size_t s_id : s_live) {
      decided |= inc.Decide(id, s_id) != MatchDecision::kUndetermined;
    }
    if (decided) return "dead or unknown R" + std::to_string(id) + " decided";
  }
  for (size_t id = 0; id < s.alive.size() + 3; ++id) {
    if (id < s.alive.size() && s.alive[id]) continue;
    bool decided = inc.MatchOfS(id).has_value();
    for (size_t r_id : r_live) {
      decided |= inc.Decide(r_id, id) != MatchDecision::kUndetermined;
    }
    if (decided) return "dead or unknown S" + std::to_string(id) + " decided";
  }
  if (inc.MatchOfR(SIZE_MAX).has_value() ||
      inc.MatchOfS(SIZE_MAX).has_value() ||
      inc.Decide(SIZE_MAX, SIZE_MAX) != MatchDecision::kUndetermined) {
    return "SIZE_MAX ids are decided";
  }
  return "";
}

/// Runs one seeded stream of InsertR/InsertS/DeleteR/DeleteS, comparing
/// the session with the reference every `every` steps. Inserts pick any
/// world row: a live one must be rejected as a duplicate key with the
/// message Relation::Insert gives and leave the state unchanged; a deleted
/// one is re-inserted under a fresh id. Deletes pick live ids mostly, and
/// otherwise any id up to two past the last assigned one, which must be
/// NotFound unless live. Returns the first failure as "step N: ...".
std::string RunStream(const GeneratedWorld& world,
                      const IdentifierConfig& config, uint64_t seed,
                      size_t steps, size_t every) {
  Result<IncrementalIdentifier> created = IncrementalIdentifier::Create(
      config, EmptyLike(world.r), EmptyLike(world.s));
  if (!created.ok()) return "Create: " + created.status().ToString();
  IncrementalIdentifier& inc = *created;
  StreamSide sides[2];
  sides[0].rows = &world.r;
  sides[1].rows = &world.s;
  for (StreamSide& side : sides) side.live_id.assign(side.rows->size(), {});
  std::mt19937_64 rng(seed);

  for (size_t step = 1; step <= steps; ++step) {
    const auto fail = [&](const std::string& what) {
      return "step " + std::to_string(step) + ": " + what;
    };
    const bool is_r = rng() % 2 == 0;
    StreamSide& side = sides[is_r ? 0 : 1];
    const char* name = is_r ? "R" : "S";
    // Inserts outweigh deletes while less than half the rows are live.
    size_t live = 0;
    for (bool a : side.alive) live += a ? 1 : 0;
    const bool insert = rng() % 4 < (2 * live < side.rows->size() ? 3u : 2u);
    if (insert) {
      const size_t row = rng() % side.rows->size();
      const PairPartition before = inc.Partition();
      const size_t r_size = inc.r_size(), s_size = inc.s_size();
      Result<size_t> id = is_r ? inc.InsertR(side.rows->row(row))
                               : inc.InsertS(side.rows->row(row));
      if (side.live_id[row].has_value()) {
        if (id.ok()) return fail(std::string("duplicate ") + name + " kept");
        Relation holder = EmptyLike(*side.rows);
        if (!holder.Insert(side.rows->row(row)).ok()) {
          return fail("world row violates its own key");
        }
        const Status want = holder.Insert(side.rows->row(row));
        if (id.status() != want) {
          return fail("duplicate-key error " + id.status().ToString() +
                      ", Relation::Insert says " + want.ToString());
        }
        const PairPartition after = inc.Partition();
        if (inc.r_size() != r_size || inc.s_size() != s_size ||
            after.matched != before.matched ||
            after.non_matched != before.non_matched ||
            after.total != before.total) {
          return fail("rejected insert changed the state");
        }
      } else {
        if (!id.ok()) return fail("insert: " + id.status().ToString());
        if (*id != side.row_of_id.size()) {
          return fail("id " + std::to_string(*id) + " is not the next id " +
                      std::to_string(side.row_of_id.size()));
        }
        side.row_of_id.push_back(row);
        side.alive.push_back(true);
        side.live_id[row] = *id;
      }
    } else {
      size_t id = 0;
      std::vector<size_t> live_ids;
      for (size_t i = 0; i < side.alive.size(); ++i) {
        if (side.alive[i]) live_ids.push_back(i);
      }
      if (!live_ids.empty() && rng() % 4 != 0) {
        id = live_ids[rng() % live_ids.size()];
      } else {
        id = rng() % (side.alive.size() + 2);
      }
      const bool was_live = id < side.alive.size() && side.alive[id];
      const Status st = is_r ? inc.DeleteR(id) : inc.DeleteS(id);
      if (was_live) {
        if (!st.ok()) return fail("delete: " + st.ToString());
        side.alive[id] = false;
        side.live_id[side.row_of_id[id]].reset();
      } else if (st.code() != StatusCode::kNotFound) {
        return fail(std::string("delete of dead or unknown ") + name +
                    std::to_string(id) + ": " + st.ToString());
      }
    }
    if (step % every == 0 || step == steps) {
      const std::string diff =
          CompareWithBatch(inc, config, sides[0], sides[1]);
      if (!diff.empty()) return fail(diff);
    }
  }
  return "";
}

TEST(IncrementalPropertyTest, RandomInterleavingsEqualBatch) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const GeneratedWorld world = HomonymWorld(/*per_side=*/40, seed);
    for (bool keyed : {true, false}) {
      const std::string failure =
          RunStream(world, HomonymConfig(world, keyed), seed,
                    /*steps=*/240, /*every=*/12);
      EXPECT_EQ(failure, "")
          << "seed " << seed << (keyed ? " keyed" : " unkeyed");
    }
  }
}

/// HomonymConfig keyed on {name, speciality}, plus an identity rule on
/// the name alone. Homonyms make it fire on pairs the key join does not
/// certify, so it competes with key-join candidates for the same tuples —
/// the case where the session must take key-join candidates first, as
/// batch Identify does.
IdentifierConfig CompetingKeyedConfig(const GeneratedWorld& world) {
  IdentifierConfig config = HomonymConfig(world, /*keyed=*/true);
  Result<IdentityRule> same_name =
      ParseIdentityRule("name_eq", "e1.name = e2.name");
  EID_CHECK(same_name.ok());
  config.identity_rules.push_back(*same_name);
  return config;
}

TEST(IncrementalPropertyTest, KeyedSessionsWithCompetingRulesEqualBatch) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const GeneratedWorld world = HomonymWorld(/*per_side=*/40, seed);
    const std::string failure =
        RunStream(world, CompetingKeyedConfig(world), seed, /*steps=*/240,
                  /*every=*/12);
    EXPECT_EQ(failure, "") << "seed " << seed;
  }
}

TEST(IncrementalPropertyTest, SessionMovedAfterInsertsEqualsBatch) {
  // The rules' residuals read the session's columnar world, which must
  // survive moving the session once it holds rows: move-construct, then
  // move-assign, writing between the moves.
  const GeneratedWorld world = HomonymWorld(/*per_side=*/40, /*seed=*/5);
  const IdentifierConfig config = CompetingKeyedConfig(world);
  StreamSide sides[2];
  sides[0].rows = &world.r;
  sides[1].rows = &world.s;
  for (StreamSide& side : sides) side.live_id.assign(side.rows->size(), {});
  auto insert = [&](IncrementalIdentifier& inc, size_t k, size_t row) {
    StreamSide& side = sides[k];
    Result<size_t> id = k == 0 ? inc.InsertR(side.rows->row(row))
                               : inc.InsertS(side.rows->row(row));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(*id, side.row_of_id.size());
    side.row_of_id.push_back(row);
    side.alive.push_back(true);
    side.live_id[row] = *id;
  };
  auto erase = [&](IncrementalIdentifier& inc, size_t k, size_t id) {
    StreamSide& side = sides[k];
    EID_ASSERT_OK(k == 0 ? inc.DeleteR(id) : inc.DeleteS(id));
    side.alive[id] = false;
    side.live_id[side.row_of_id[id]].reset();
  };
  auto create = [&] {
    return IncrementalIdentifier::Create(config, EmptyLike(world.r),
                                         EmptyLike(world.s));
  };

  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier first, create());
  for (size_t k = 0; k < 2; ++k) {
    for (size_t row = 0; row < sides[k].rows->size() / 2; ++row) {
      insert(first, k, row);
    }
  }
  IncrementalIdentifier moved(std::move(first));
  for (size_t k = 0; k < 2; ++k) {
    for (size_t row = sides[k].rows->size() / 2; row < sides[k].rows->size();
         ++row) {
      insert(moved, k, row);
    }
    for (size_t id = 0; id < sides[k].alive.size(); id += 3) {
      erase(moved, k, id);
    }
  }
  EXPECT_EQ(CompareWithBatch(moved, config, sides[0], sides[1]), "");

  EID_ASSERT_OK_AND_ASSIGN(IncrementalIdentifier assigned, create());
  assigned = std::move(moved);
  for (size_t k = 0; k < 2; ++k) {
    // Re-insert every deleted row under a fresh id, then delete others.
    for (size_t row = 0; row < sides[k].rows->size(); ++row) {
      if (!sides[k].live_id[row].has_value()) insert(assigned, k, row);
    }
    for (size_t id = 1; id < sides[k].alive.size(); id += 4) {
      if (sides[k].alive[id]) erase(assigned, k, id);
    }
  }
  EXPECT_EQ(CompareWithBatch(assigned, config, sides[0], sides[1]), "");
  EXPECT_GT(assigned.Partition().matched, 0u);
  EXPECT_GT(assigned.Partition().non_matched, 0u);
}

TEST(IncrementalPropertyTest, StreamsExerciseEveryRegion) {
  // Guards the property test above against a world too sparse to test
  // anything: the rules fire across homonyms, so a full load has matched
  // and non-matched pairs and at least one uniqueness violation.
  const GeneratedWorld world = HomonymWorld(/*per_side=*/40, /*seed=*/1);
  const IdentifierConfig config = HomonymConfig(world, /*keyed=*/false);
  EID_ASSERT_OK_AND_ASSIGN(IdentificationResult batch,
                           EntityIdentifier(config).Identify(world.r, world.s));
  EXPECT_GT(batch.partition.matched, 0u);
  EXPECT_GT(batch.partition.non_matched, 0u);
  EXPECT_GT(batch.partition.undetermined, 0u);
  EXPECT_FALSE(batch.uniqueness.ok());
}

}  // namespace
}  // namespace eid
