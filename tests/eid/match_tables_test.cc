// MatchTable against a std::set oracle (paper §3.2): a matching table keeps
// its pairs in insertion order and answers membership and per-side lookups
// from its row index; a negative table is a strictly increasing row-major
// pair column. Randomized cases draw pairs from a small grid so that
// re-adds, uniqueness conflicts and out-of-order adds are all frequent.

#include "eid/match_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "../test_util.h"
#include "workload/rng.h"

namespace eid {
namespace {

constexpr uint64_t kSeeds = 200;

TuplePair RandomPair(Rng& rng, size_t rows, size_t cols) {
  return TuplePair{static_cast<size_t>(rng.Below(rows)),
                   static_cast<size_t>(rng.Below(cols))};
}

/// The uniqueness verdict Add must return for `pair` given the pairs
/// accepted so far, in the order they were accepted.
Status OracleMatchingAdd(const std::vector<TuplePair>& accepted,
                         const TuplePair& pair) {
  for (const TuplePair& p : accepted) {
    if (p == pair) return Status::Ok();
  }
  for (const TuplePair& p : accepted) {
    if (p.r_index == pair.r_index) {
      return Status::ConstraintViolation(
          "uniqueness constraint: R tuple " + std::to_string(pair.r_index) +
          " already matched to S tuple " + std::to_string(p.s_index) +
          ", cannot also match S tuple " + std::to_string(pair.s_index));
    }
  }
  for (const TuplePair& p : accepted) {
    if (p.s_index == pair.s_index) {
      return Status::ConstraintViolation(
          "uniqueness constraint: S tuple " + std::to_string(pair.s_index) +
          " already matched to R tuple " + std::to_string(p.r_index) +
          ", cannot also match R tuple " + std::to_string(pair.r_index));
    }
  }
  return Status::Ok();
}

/// Checks every observable of `table` against the oracle over a grid one
/// row and one column wider than the one pairs were drawn from.
void ExpectMatchingTableEquals(const MatchTable& table,
                               const std::vector<TuplePair>& accepted,
                               size_t rows, size_t cols) {
  const std::set<TuplePair> members(accepted.begin(), accepted.end());
  ASSERT_EQ(table.size(), accepted.size());
  EXPECT_EQ(table.pairs(), accepted);  // insertion order
  for (size_t r = 0; r <= rows; ++r) {
    std::optional<size_t> match;
    for (const TuplePair& p : accepted) {
      if (p.r_index == r) match = p.s_index;
    }
    EXPECT_EQ(table.MatchOfR(r), match) << "R" << r;
    EXPECT_EQ(table.HasR(r), match.has_value()) << "R" << r;
    for (size_t s = 0; s <= cols; ++s) {
      EXPECT_EQ(table.Contains(TuplePair{r, s}),
                members.count(TuplePair{r, s}) > 0)
          << "(" << r << ", " << s << ")";
    }
  }
  for (size_t s = 0; s <= cols; ++s) {
    std::optional<size_t> match;
    for (const TuplePair& p : accepted) {
      if (p.s_index == s) match = p.r_index;
    }
    EXPECT_EQ(table.MatchOfS(s), match) << "S" << s;
    EXPECT_EQ(table.HasS(s), match.has_value()) << "S" << s;
  }
}

void ExpectNegativeTableEquals(const MatchTable& table,
                               const std::set<TuplePair>& members,
                               size_t rows, size_t cols) {
  ASSERT_EQ(table.size(), members.size());
  EXPECT_EQ(table.pairs(),
            std::vector<TuplePair>(members.begin(), members.end()));
  for (size_t r = 0; r <= rows; ++r) {
    for (size_t s = 0; s <= cols; ++s) {
      EXPECT_EQ(table.Contains(TuplePair{r, s}),
                members.count(TuplePair{r, s}) > 0)
          << "(" << r << ", " << s << ")";
    }
  }
}

TEST(MatchTableTest, RandomizedMatchingAddsAgreeWithOracle) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = 1 + rng.Below(8);
    const size_t cols = 1 + rng.Below(8);
    MatchTable table(/*negative=*/false);
    std::vector<TuplePair> accepted;
    const size_t adds = rng.Below(3 * (rows + cols));
    for (size_t i = 0; i < adds; ++i) {
      // Every fourth add on average re-adds an accepted pair.
      const TuplePair pair = !accepted.empty() && rng.Chance(0.25)
                                 ? accepted[rng.Below(accepted.size())]
                                 : RandomPair(rng, rows, cols);
      const Status want = OracleMatchingAdd(accepted, pair);
      const Status got = table.Add(pair);
      ASSERT_EQ(got.code(), want.code()) << got.ToString();
      ASSERT_EQ(got.message(), want.message());
      if (got.ok() && std::find(accepted.begin(), accepted.end(), pair) ==
                          accepted.end()) {
        accepted.push_back(pair);
      }
    }
    ExpectMatchingTableEquals(table, accepted, rows, cols);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MatchTableTest, RandomizedNegativeAddsAgreeWithOracle) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = 1 + rng.Below(8);
    const size_t cols = 1 + rng.Below(8);
    // Odd seeds add in row-major order (the sweep's and the reference's
    // order) with re-adds of the last pair; even seeds add anywhere.
    const bool row_major = seed % 2 == 1;
    std::vector<TuplePair> adds;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t s = 0; s < cols; ++s) {
        if (rng.Chance(0.4)) adds.push_back(TuplePair{r, s});
        if (!adds.empty() && rng.Chance(0.1)) adds.push_back(adds.back());
      }
    }
    if (!row_major) {
      for (size_t i = adds.size(); i > 1; --i) {
        std::swap(adds[i - 1], adds[rng.Below(i)]);
      }
      const size_t extra = rng.Below(rows * cols + 1);
      for (size_t i = 0; i < extra; ++i) {
        adds.push_back(RandomPair(rng, rows, cols));
      }
    }
    MatchTable table(/*negative=*/true);
    std::set<TuplePair> members;
    for (const TuplePair& pair : adds) {
      EID_ASSERT_OK(table.Add(pair));
      members.insert(pair);
      ASSERT_TRUE(std::is_sorted(table.pairs().begin(), table.pairs().end()));
    }
    ExpectNegativeTableEquals(table, members, rows, cols);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MatchTableTest, RandomizedFromPairsAgreesWithOracle) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = 1 + rng.Below(8);
    const size_t cols = 1 + rng.Below(8);
    std::vector<TuplePair> list;
    const size_t n = rng.Below(2 * (rows + cols));
    for (size_t i = 0; i < n; ++i) {
      list.push_back(!list.empty() && rng.Chance(0.3)
                         ? list[rng.Below(list.size())]  // a duplicate
                         : RandomPair(rng, rows, cols));
    }

    // Negative: sorted and deduplicated, whatever the list's order.
    EID_ASSERT_OK_AND_ASSIGN(MatchTable negative,
                             MatchTable::FromPairs(/*negative=*/true, list));
    ExpectNegativeTableEquals(
        negative, std::set<TuplePair>(list.begin(), list.end()), rows, cols);

    // Matching: the Add fold in list order, failing on the first
    // uniqueness violation with Add's message.
    std::vector<TuplePair> accepted;
    Status want = Status::Ok();
    for (const TuplePair& pair : list) {
      want = OracleMatchingAdd(accepted, pair);
      if (!want.ok()) break;
      if (std::find(accepted.begin(), accepted.end(), pair) ==
          accepted.end()) {
        accepted.push_back(pair);
      }
    }
    Result<MatchTable> matching =
        MatchTable::FromPairs(/*negative=*/false, list);
    ASSERT_EQ(matching.status().code(), want.code());
    if (want.ok()) {
      ExpectMatchingTableEquals(*matching, accepted, rows, cols);
    } else {
      EXPECT_EQ(matching.status().message(), want.message());
    }

    // Consistency holds exactly when the two tables share no pair.
    if (matching.ok()) {
      MatchTable nmt(/*negative=*/true);
      for (const TuplePair& p : list) {
        if (!matching->Contains(p) || rng.Chance(0.2)) {
          EID_ASSERT_OK(nmt.Add(p));
        }
      }
      bool overlap = false;
      for (const TuplePair& p : matching->pairs()) {
        overlap = overlap || nmt.Contains(p);
      }
      EXPECT_EQ(MatchTable::CheckConsistency(*matching, nmt).ok(), !overlap);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MatchTableTest, RandomizedAdoptSortedTakesOnlyIncreasingLists) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::set<TuplePair> members;
    const size_t n = rng.Below(20);
    for (size_t i = 0; i < n; ++i) members.insert(RandomPair(rng, 6, 6));
    std::vector<TuplePair> list(members.begin(), members.end());
    // Every other seed breaks the order once: a duplicate or a swap.
    const bool break_order = seed % 2 == 0 && list.size() >= 2;
    if (break_order) {
      const size_t at = 1 + rng.Below(list.size() - 1);
      if (rng.Chance(0.5)) {
        list[at] = list[at - 1];
      } else {
        std::swap(list[at], list[at - 1]);
      }
    }
    const std::vector<TuplePair> before = list;
    MatchTable table(/*negative=*/true);
    EXPECT_EQ(table.AdoptSorted(&list), !break_order);
    if (break_order) {
      EXPECT_EQ(list, before);
      EXPECT_TRUE(table.empty());
    } else {
      EXPECT_TRUE(list.empty());
      ExpectNegativeTableEquals(table, members, 6, 6);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MatchTableTest, PerSideLookupsAreForMatchingTablesOnly) {
  MatchTable negative(/*negative=*/true);
  EID_ASSERT_OK(negative.Add(TuplePair{0, 0}));
  EXPECT_DEATH((void)negative.HasR(0), "CHECK failed");
  EXPECT_DEATH((void)negative.MatchOfS(0), "CHECK failed");
}

// The NMT adopt contract (DESIGN.md §4d): a strictly increasing list is
// taken by move after one order check; anything else leaves table and
// list untouched, and FromPairs sorts and deduplicates it instead.
TEST(MatchTableTest, AdoptSortedTakesStrictlyIncreasingPairs) {
  std::vector<TuplePair> pairs = {{0, 1}, {0, 3}, {2, 0}, {2, 1}};
  MatchTable table(/*negative=*/true);
  ASSERT_TRUE(table.AdoptSorted(&pairs));
  EXPECT_TRUE(pairs.empty());
  ASSERT_EQ(table.size(), 4u);
  EXPECT_TRUE(table.Contains(TuplePair{2, 0}));
  EXPECT_FALSE(table.Contains(TuplePair{1, 0}));
}

TEST(MatchTableTest, AdoptSortedRejectsUnsortedOrDuplicatePairs) {
  for (std::vector<TuplePair> pairs :
       {std::vector<TuplePair>{{0, 1}, {0, 1}},
        std::vector<TuplePair>{{1, 0}, {0, 5}}}) {
    const std::vector<TuplePair> before = pairs;
    MatchTable table(/*negative=*/true);
    EXPECT_FALSE(table.AdoptSorted(&pairs));
    EXPECT_EQ(pairs, before);
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.Contains(TuplePair{0, 1}));
  }
}

TEST(MatchTableTest, FromPairsFoldsUnsortedNegativeLists) {
  EID_ASSERT_OK_AND_ASSIGN(
      MatchTable table,
      MatchTable::FromPairs(/*negative=*/true,
                            {{3, 1}, {0, 2}, {3, 1}, {1, 1}, {0, 2}}));
  EXPECT_EQ(table.size(), 3u);  // duplicates skipped
  for (const TuplePair& p :
       {TuplePair{3, 1}, TuplePair{0, 2}, TuplePair{1, 1}}) {
    EXPECT_TRUE(table.Contains(p));
  }
  EXPECT_FALSE(table.Contains(TuplePair{1, 2}));
  EXPECT_EQ(table.pairs(),
            (std::vector<TuplePair>{{0, 2}, {1, 1}, {3, 1}}));  // row-major
}

}  // namespace
}  // namespace eid
