// Indexed rule evaluation must agree, pair for pair and in order, with
// the exhaustive cross-product sweep it replaces — for rules with an
// equality join conjunct, rules with only constant-equality conjuncts,
// and rules with no equality at all (tiled fallback). The CSR posting
// index behind it must agree with a brute-force scan of its id column.

#include "exec/blocking_index.h"

#include <gtest/gtest.h>

#include <random>

#include "../test_util.h"
#include "rules/distinctness_rule.h"
#include "rules/identity_rule.h"

namespace eid {
namespace exec {
namespace {

using ::eid::testing::MakeRelation;

/// Reference implementation: the serial nested loop over the full cross
/// product, row-major.
std::vector<TuplePair> ExhaustiveTruePairs(
    const Relation& r, const Relation& s,
    const std::vector<Predicate>& predicates, bool flipped) {
  std::vector<TuplePair> out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      TupleView rv = r.tuple(i);
      TupleView sv = s.tuple(j);
      Truth t = flipped ? EvaluateConjunction(predicates, sv, rv)
                        : EvaluateConjunction(predicates, rv, sv);
      if (t == Truth::kTrue) out.push_back(TuplePair{i, j});
    }
  }
  return out;
}

/// Asserts indexed == exhaustive for both orientations and every pool
/// size, and returns the direct-orientation scan stats.
PairScanStats ExpectMatchesExhaustive(const Relation& r, const Relation& s,
                                      const std::vector<Predicate>& preds) {
  PairScanStats direct_stats;
  for (bool flipped : {false, true}) {
    std::vector<TuplePair> expected =
        ExhaustiveTruePairs(r, s, preds, flipped);
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      PairScanStats stats;
      std::vector<TuplePair> got =
          CollectTruePairs(r, s, preds, flipped, /*world=*/nullptr,
                           threads > 1 ? &pool : nullptr, &stats);
      EXPECT_EQ(got, expected)
          << "flipped=" << flipped << " threads=" << threads;
      if (!flipped && threads == 1) direct_stats = stats;
    }
  }
  return direct_stats;
}

Relation TestR() {
  return MakeRelation("R", {"name", "city", "score"}, {},
                      {{"anna", "Oslo", "1"},
                       {"bob", "Pune", "2"},
                       {"carl", "Oslo", "3"},
                       {"anna", "Pune", "4"},
                       {"dana", "Lima", "2"}});
}

Relation TestS() {
  return MakeRelation("S", {"name", "town", "rank"}, {},
                      {{"anna", "Oslo", "1"},
                       {"bob", "Lima", "3"},
                       {"anna", "Pune", "2"},
                       {"erik", "Oslo", "2"}});
}

TEST(ColumnIndexTest, BucketsSkipNullsAndStayAscending) {
  Relation r("R", Schema::OfStrings({"a"}));
  EID_ASSERT_OK(r.Insert(Row{Value::Str("x")}));
  EID_ASSERT_OK(r.Insert(Row{Value::Null()}));
  EID_ASSERT_OK(r.Insert(Row{Value::Str("x")}));
  EID_ASSERT_OK(r.Insert(Row{Value::Str("y")}));
  ColumnarWorld world;
  const ColumnIndex& index = world.Index(WorldRel::kR, r, 0);
  const PostingRange x = index.Find(world.dict().Find(Value::Str("x")));
  EXPECT_EQ(std::vector<uint32_t>(x.begin(), x.end()),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(index.Find(ColumnarWorld::kNullId).empty());  // NULL: never
  EXPECT_TRUE(index.Find(world.dict().Find(Value::Str("z"))).empty());
  EXPECT_EQ(index.distinct(), 2u);
}

TEST(ColumnIndexTest, MatchesBruteForceScanOnRandomIdColumns) {
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    const size_t rows = 1 + rng() % 300;
    const size_t id_space = 1 + rng() % 64;
    std::vector<uint32_t> ids(rows);
    for (uint32_t& id : ids) {
      id = rng() % 4 == 0 ? ColumnarWorld::kNullId
                          : static_cast<uint32_t>(rng() % id_space);
    }
    ColumnIndex index = ColumnIndex::Build(ids, id_space);
    size_t distinct = 0;
    size_t indexed = 0;
    for (uint32_t v = 0; v < id_space; ++v) {
      std::vector<uint32_t> want;
      for (size_t r = 0; r < rows; ++r) {
        if (ids[r] == v) want.push_back(static_cast<uint32_t>(r));
      }
      const PostingRange got = index.Find(v);
      EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want)
          << "round " << round << " id " << v;
      if (!want.empty()) ++distinct;
      indexed += got.size();
    }
    EXPECT_EQ(index.distinct(), distinct);
    // Every non-NULL cell is in exactly one range; NULL in none.
    size_t non_null = 0;
    for (uint32_t id : ids) non_null += id != ColumnarWorld::kNullId;
    EXPECT_EQ(indexed, non_null);
    EXPECT_TRUE(index.Find(ColumnarWorld::kNullId).empty());
    // Ids beyond the build-time id space — values interned after the
    // build — are empty ranges, never out-of-bounds reads.
    for (uint32_t v = static_cast<uint32_t>(id_space);
         v < static_cast<uint32_t>(id_space) + 8; ++v) {
      EXPECT_TRUE(index.Find(v).empty()) << "id " << v;
    }
  }
}

TEST(ColumnIndexTest, IdsInternedAfterTheBuildAreEmptyRanges) {
  // The session dictionary keeps growing after an index is built (later
  // columns intern new values); probing with those ids must read as
  // absent, not past the offsets array.
  Relation r = MakeRelation("R", {"a"}, {}, {{"x"}, {"y"}, {"x"}});
  Relation s = MakeRelation("S", {"a"}, {}, {{"q"}, {"y"}, {"w"}});
  ColumnarWorld world;
  const ColumnIndex& index = world.Index(WorldRel::kR, r, 0);
  const size_t built_with = world.dict().size();
  const std::vector<uint32_t>& s_ids = world.Column(WorldRel::kS, s, 0);
  ASSERT_GT(world.dict().size(), built_with);  // "q" and "w" are new
  EXPECT_TRUE(index.Find(s_ids[0]).empty());   // q
  EXPECT_EQ(index.Find(s_ids[1]).size(), 1u);  // y, interned before
  EXPECT_TRUE(index.Find(s_ids[2]).empty());   // w
  // Adopting new ids for the column drops its index; the next request
  // indexes the new ids.
  world.Adopt(WorldRel::kR, 0, {s_ids[0], ColumnarWorld::kNullId, s_ids[0]});
  const ColumnIndex& rebuilt = world.Index(WorldRel::kR, r, 0);
  const PostingRange q = rebuilt.Find(s_ids[0]);
  EXPECT_EQ(std::vector<uint32_t>(q.begin(), q.end()),
            (std::vector<uint32_t>{0, 2}));
}

TEST(PlanBlockingTest, ExtractsJoinInBothOperandOrders) {
  Schema r = Schema::OfStrings({"name"});
  Schema s = Schema::OfStrings({"town"});
  for (const std::string& text :
       {std::string("e1.name = e2.town"), std::string("e2.town = e1.name")}) {
    EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                             ParsePredicateConjunction(text));
    BlockingPlan plan = PlanBlocking(preds, r, s, /*flipped=*/false);
    EXPECT_FALSE(plan.impossible);
    ASSERT_TRUE(plan.has_join);
    EXPECT_EQ(plan.r_attr, "name");
    EXPECT_EQ(plan.s_attr, "town");
  }
}

TEST(PlanBlockingTest, FlippedOrientationSwapsSides) {
  Schema r = Schema::OfStrings({"name"});
  Schema s = Schema::OfStrings({"town"});
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.town = e2.name"));
  BlockingPlan plan = PlanBlocking(preds, r, s, /*flipped=*/true);
  ASSERT_TRUE(plan.has_join);
  EXPECT_EQ(plan.r_attr, "name");  // e2 binds to the r side when flipped
  EXPECT_EQ(plan.s_attr, "town");
}

TEST(PlanBlockingTest, AbsentAttributeIsImpossible) {
  Schema r = Schema::OfStrings({"name"});
  Schema s = Schema::OfStrings({"town"});
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.no_such != \"x\""));
  BlockingPlan plan = PlanBlocking(preds, r, s, /*flipped=*/false);
  EXPECT_TRUE(plan.impossible);
}

TEST(CollectTruePairsTest, EqualityJoinRuleUsesIndex) {
  EID_ASSERT_OK_AND_ASSIGN(
      std::vector<Predicate> preds,
      ParsePredicateConjunction("e1.name = e2.name & e1.city = e2.town"));
  PairScanStats stats = ExpectMatchesExhaustive(TestR(), TestS(), preds);
  EXPECT_TRUE(stats.indexed);
  // 5x4 cross product, but only same-name pairs were ever evaluated.
  EXPECT_LT(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CollectTruePairsTest, ConstantOnlyRuleFallsBackToFilteredScan) {
  EID_ASSERT_OK_AND_ASSIGN(
      std::vector<Predicate> preds,
      ParsePredicateConjunction(
          "e1.city = \"Oslo\" & e2.rank != \"1\""));
  PairScanStats stats = ExpectMatchesExhaustive(TestR(), TestS(), preds);
  EXPECT_FALSE(stats.indexed);
  // The e1.city = "Oslo" filter pruned the scan below the cross product.
  EXPECT_LT(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CollectTruePairsTest, NoEqualityRuleScansFullCrossProduct) {
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.score < e2.rank"));
  PairScanStats stats = ExpectMatchesExhaustive(TestR(), TestS(), preds);
  EXPECT_FALSE(stats.indexed);
  EXPECT_EQ(stats.candidate_pairs, TestR().size() * TestS().size());
}

TEST(CollectTruePairsTest, NullsNeverJoin) {
  Relation r("R", Schema::OfStrings({"name"}));
  EID_ASSERT_OK(r.Insert(Row{Value::Str("anna")}));
  EID_ASSERT_OK(r.Insert(Row{Value::Null()}));
  Relation s("S", Schema::OfStrings({"name"}));
  EID_ASSERT_OK(s.Insert(Row{Value::Null()}));
  EID_ASSERT_OK(s.Insert(Row{Value::Str("anna")}));
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.name = e2.name"));
  ExpectMatchesExhaustive(r, s, preds);
}

TEST(CollectTruePairsTest, RealRuleShapesAgree) {
  // The paper's r1/r3 shapes, via the public rule parsers.
  EID_ASSERT_OK_AND_ASSIGN(
      IdentityRule r1,
      ParseIdentityRule("r1",
                        "e1.name = e2.name & e1.city = \"Oslo\" & "
                        "e2.town = \"Oslo\""));
  ExpectMatchesExhaustive(TestR(), TestS(), r1.predicates());
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule r3,
      ParseDistinctnessRule("r3",
                            "e1.city = \"Lima\" & e2.rank != \"3\""));
  ExpectMatchesExhaustive(TestR(), TestS(), r3.predicates());
}

}  // namespace
}  // namespace exec
}  // namespace eid
