// Blocking plans must list the right join and constant conjuncts per
// orientation, ChooseProbe must probe through the join whose s column
// has the most distinct values, and the CSR posting index behind every
// probe must agree with a brute-force scan of its id column. The staged
// sweep that reads both is checked against the nested-loop fold in
// candidate_generator_test.cc.

#include "exec/blocking_index.h"

#include <gtest/gtest.h>

#include <random>

#include "../test_util.h"
#include "rules/identity_rule.h"

namespace eid {
namespace exec {
namespace {

using ::eid::testing::MakeRelation;

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
    ASSERT_EQ(plan.joins.size(), 1u);
    EXPECT_EQ(plan.joins[0].r_attr, "name");
    EXPECT_EQ(plan.joins[0].s_attr, "town");
  }
}

TEST(PlanBlockingTest, FlippedOrientationSwapsSides) {
  Schema r = Schema::OfStrings({"name"});
  Schema s = Schema::OfStrings({"town"});
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.town = e2.name"));
  BlockingPlan plan = PlanBlocking(preds, r, s, /*flipped=*/true);
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_EQ(plan.joins[0].r_attr, "name");  // e2 binds to r when flipped
  EXPECT_EQ(plan.joins[0].s_attr, "town");
}

TEST(PlanBlockingTest, ChooseProbeTakesTheMostDistinctSColumn) {
  // S's city holds 2 values, name 4 and tag 4: the probe is name, the
  // first of the two widest, whichever conjunct order lists the joins.
  Relation r = MakeRelation("R", {"city", "name", "tag"}, {},
                            {{"Oslo", "anna", "t1"}, {"Pune", "bob", "t2"}});
  Relation s = MakeRelation("S", {"city", "name", "tag"}, {},
                            {{"Oslo", "anna", "t1"},
                             {"Oslo", "bob", "t2"},
                             {"Pune", "carl", "t3"},
                             {"Pune", "dana", "t4"}});
  EID_ASSERT_OK_AND_ASSIGN(
      std::vector<Predicate> preds,
      ParsePredicateConjunction("e1.city = e2.city & e1.name = e2.name & "
                                "e1.tag = e2.tag & e2.city = \"Oslo\""));
  BlockingPlan plan =
      PlanBlocking(preds, r.schema(), s.schema(), /*flipped=*/false);
  ASSERT_EQ(plan.joins.size(), 3u);
  EXPECT_FALSE(plan.probe.has_value());
  // Every join is a pair residual until one is probed, and the s-side
  // constant is one too: the probe path does not apply it.
  for (PredicateCoverage c : plan.coverage) {
    EXPECT_EQ(c, PredicateCoverage::kResidualPair);
  }
  ColumnarWorld world;
  ChooseProbe(&plan, world, s);
  ASSERT_TRUE(plan.probe.has_value());
  EXPECT_EQ(plan.joins[*plan.probe].s_attr, "name");
  EXPECT_EQ(plan.coverage,
            (std::vector<PredicateCoverage>{
                PredicateCoverage::kResidualPair, PredicateCoverage::kCovered,
                PredicateCoverage::kResidualPair,
                PredicateCoverage::kResidualPair}));
  // No join: nothing to choose.
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> const_only,
                           ParsePredicateConjunction("e1.city = \"Oslo\""));
  BlockingPlan none =
      PlanBlocking(const_only, r.schema(), s.schema(), /*flipped=*/false);
  ChooseProbe(&none, world, s);
  EXPECT_FALSE(none.probe.has_value());
  EXPECT_EQ(none.coverage,
            std::vector<PredicateCoverage>{PredicateCoverage::kCovered});
}

TEST(PlanBlockingTest, AbsentAttributeIsImpossible) {
  Schema r = Schema::OfStrings({"name"});
  Schema s = Schema::OfStrings({"town"});
  EID_ASSERT_OK_AND_ASSIGN(std::vector<Predicate> preds,
                           ParsePredicateConjunction("e1.no_such != \"x\""));
  BlockingPlan plan = PlanBlocking(preds, r, s, /*flipped=*/false);
  EXPECT_TRUE(plan.impossible);
}

}  // namespace
}  // namespace exec
}  // namespace eid
