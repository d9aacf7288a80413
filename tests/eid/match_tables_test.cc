// MatchTable against a std::set oracle (paper §3.2): a matching table keeps
// its pairs in insertion order and answers membership and per-side lookups
// from its row index; a negative table is row-major rows, each a strictly
// increasing pair column or, when it holds more than half of S, its
// complement. Randomized cases draw pairs from a small grid so that
// re-adds, uniqueness conflicts, out-of-order adds and rows on either side
// of half of S are all frequent.

#include "eid/match_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
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

/// The sweep's encoding of `members` over an S of `cols` rows: a row
/// holding more than half of S is stored by complement, every other row
/// explicitly.
struct EncodedRows {
  std::vector<TuplePair> explicit_pairs;
  ComplementRows complement;
};

EncodedRows Encode(const std::set<TuplePair>& members, size_t rows,
                   size_t cols) {
  EncodedRows out;
  out.complement.s_count = cols;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<uint32_t> held;
    for (size_t s = 0; s < cols; ++s) {
      if (members.count(TuplePair{r, s}) > 0) held.push_back(s);
    }
    if (2 * held.size() <= cols) {
      for (uint32_t s : held) out.explicit_pairs.push_back(TuplePair{r, s});
      continue;
    }
    out.complement.rows.push_back(static_cast<uint32_t>(r));
    for (size_t s = 0; s < cols; ++s) {
      if (members.count(TuplePair{r, s}) == 0) {
        out.complement.missing.push_back(static_cast<uint32_t>(s));
      }
    }
    out.complement.end.push_back(
        static_cast<uint32_t>(out.complement.missing.size()));
  }
  return out;
}

/// Members over a `rows` × `cols` grid whose rows range from sparse to
/// full, so that about half of them cross half of S.
std::set<TuplePair> RandomRows(Rng& rng, size_t rows, size_t cols) {
  std::set<TuplePair> members;
  for (size_t r = 0; r < rows; ++r) {
    const double density = rng.Chance(0.5) ? 0.25 : 0.85;
    for (size_t s = 0; s < cols; ++s) {
      if (rng.Chance(density)) members.insert(TuplePair{r, s});
    }
  }
  return members;
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
      const std::vector<TuplePair> pairs = table.pairs();
      ASSERT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
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
    // The same set with its rows that cross half of S stored by
    // complement.
    const std::set<TuplePair> listed(list.begin(), list.end());
    EncodedRows encoded = Encode(listed, rows, cols);
    MatchTable adopted(/*negative=*/true);
    ASSERT_TRUE(
        adopted.AdoptRows(&encoded.explicit_pairs, &encoded.complement));
    ExpectNegativeTableEquals(adopted, listed, rows, cols);

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

    // Consistency holds exactly when the two tables share no pair,
    // whether the NMT's rows are explicit or complement.
    if (matching.ok()) {
      MatchTable nmt(/*negative=*/true);
      std::set<TuplePair> dense = RandomRows(rng, rows, cols);
      for (const TuplePair& p : list) {
        if (!matching->Contains(p) || rng.Chance(0.2)) {
          EID_ASSERT_OK(nmt.Add(p));
        } else {
          dense.erase(p);
        }
      }
      EncodedRows dense_rows = Encode(dense, rows, cols);
      MatchTable dense_nmt(/*negative=*/true);
      ASSERT_TRUE(dense_nmt.AdoptRows(&dense_rows.explicit_pairs,
                                      &dense_rows.complement));
      for (const MatchTable* table : {&nmt, &dense_nmt}) {
        bool overlap = false;
        for (const TuplePair& p : matching->pairs()) {
          overlap = overlap || table->Contains(p);
        }
        EXPECT_EQ(MatchTable::CheckConsistency(*matching, *table).ok(),
                  !overlap);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MatchTableTest, RandomizedAdoptRowsTakesOnlyIncreasingRows) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = 1 + rng.Below(8);
    const size_t cols = 1 + rng.Below(8);
    const std::set<TuplePair> members = RandomRows(rng, rows, cols);
    EncodedRows encoded = Encode(members, rows, cols);
    // Every other seed breaks one row list: an explicit pair repeated or
    // swapped, a complement row repeated, on an explicit pair's row, or
    // missing an s row twice or one beyond S.
    const bool break_order = seed % 2 == 0;
    if (break_order) {
      std::vector<TuplePair>& pairs = encoded.explicit_pairs;
      ComplementRows& complement = encoded.complement;
      const uint64_t how = rng.Below(5);
      if (how == 0 && pairs.size() >= 2) {
        const size_t at = 1 + rng.Below(pairs.size() - 1);
        std::swap(pairs[at], pairs[at - 1]);
      } else if (how == 1 && !pairs.empty()) {
        pairs.insert(pairs.begin() + rng.Below(pairs.size()), pairs.front());
        std::sort(pairs.begin(), pairs.end());
      } else if (how == 2 && !pairs.empty() && !complement.empty()) {
        // Explicit and complement rows are disjoint, so this stays
        // strictly increasing.
        complement.rows[0] = pairs.front().r_index;
        std::sort(complement.rows.begin(), complement.rows.end());
      } else if (how == 3 && complement.rows.size() >= 2) {
        complement.rows[1] = complement.rows[0];
      } else {
        // A row with nothing missing gets one beyond S; a row missing
        // something gets its first missing s row twice.
        if (complement.empty()) {
          complement.rows.push_back(static_cast<uint32_t>(rows));
          complement.end.push_back(
              static_cast<uint32_t>(complement.missing.size()));
        }
        const size_t last = complement.rows.size() - 1;
        const size_t begin = last == 0 ? 0 : complement.end[last - 1];
        const uint32_t extra = complement.end[last] == begin
                                   ? static_cast<uint32_t>(cols)
                                   : complement.missing[begin];
        complement.missing.insert(complement.missing.begin() + begin, extra);
        ++complement.end[last];
      }
    }
    const EncodedRows before = encoded;
    MatchTable table(/*negative=*/true);
    const bool adopted =
        table.AdoptRows(&encoded.explicit_pairs, &encoded.complement);
    if (break_order) {
      EXPECT_FALSE(adopted);
      EXPECT_EQ(encoded.explicit_pairs, before.explicit_pairs);
      EXPECT_EQ(encoded.complement.rows, before.complement.rows);
      EXPECT_EQ(encoded.complement.missing, before.complement.missing);
      EXPECT_TRUE(table.empty());
    } else {
      EXPECT_TRUE(adopted);
      EXPECT_TRUE(encoded.explicit_pairs.empty());
      EXPECT_TRUE(encoded.complement.empty());
      ExpectNegativeTableEquals(table, members, rows, cols);
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

// The NMT adopt contract (DESIGN.md §4d): strictly increasing row lists
// in range are taken by move after one pass of checks; anything else
// leaves table and lists untouched, and FromPairs sorts and deduplicates
// a list instead.
TEST(MatchTableTest, AdoptRowsTakesStrictlyIncreasingPairs) {
  std::vector<TuplePair> pairs = {{0, 1}, {0, 3}, {2, 0}, {2, 1}};
  // Row 1 holds every s row of 5 but 2 and 4; row 3 holds all 5.
  ComplementRows complement{5, {1, 3}, {2, 2}, {2, 4}};
  MatchTable table(/*negative=*/true);
  ASSERT_TRUE(table.AdoptRows(&pairs, &complement));
  EXPECT_TRUE(pairs.empty());
  EXPECT_TRUE(complement.empty());
  ASSERT_EQ(table.size(), 12u);
  EXPECT_TRUE(table.Contains(TuplePair{2, 0}));
  EXPECT_TRUE(table.Contains(TuplePair{1, 3}));
  EXPECT_FALSE(table.Contains(TuplePair{1, 2}));
  EXPECT_FALSE(table.Contains(TuplePair{1, 5}));
  EXPECT_TRUE(table.Contains(TuplePair{3, 4}));
  EXPECT_FALSE(table.Contains(TuplePair{4, 0}));
  EXPECT_EQ(table.pairs(),
            (std::vector<TuplePair>{{0, 1}, {0, 3}, {1, 0}, {1, 1}, {1, 3},
                                    {2, 0}, {2, 1}, {3, 0}, {3, 1}, {3, 2},
                                    {3, 3}, {3, 4}}));
}

TEST(MatchTableTest, AdoptRowsRejectsUnsortedOrDuplicatePairs) {
  for (std::vector<TuplePair> pairs :
       {std::vector<TuplePair>{{0, 1}, {0, 1}},
        std::vector<TuplePair>{{1, 0}, {0, 5}},
        std::vector<TuplePair>{{0, 1}, {1, 6}}}) {  // s beyond S
    const std::vector<TuplePair> before = pairs;
    ComplementRows complement{6, {}, {}, {}};
    MatchTable table(/*negative=*/true);
    EXPECT_FALSE(table.AdoptRows(&pairs, &complement));
    EXPECT_EQ(pairs, before);
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.Contains(TuplePair{0, 1}));
  }
  // A complement row on an explicit pair's row, rows out of order, a
  // missing list out of order or beyond S, ends out of order, and
  // missing rows no row owns.
  for (ComplementRows complement :
       {ComplementRows{6, {0}, {0}, {}}, ComplementRows{6, {3, 2}, {0, 0}, {}},
        ComplementRows{6, {2}, {2}, {3, 1}}, ComplementRows{6, {2}, {1}, {6}},
        ComplementRows{6, {2, 3}, {2, 1}, {1, 4}},
        ComplementRows{6, {}, {}, {1}}}) {
    std::vector<TuplePair> pairs = {{0, 1}};
    const ComplementRows before = complement;
    MatchTable table(/*negative=*/true);
    EXPECT_FALSE(table.AdoptRows(&pairs, &complement));
    EXPECT_EQ(pairs.size(), 1u);
    EXPECT_EQ(complement.rows, before.rows);
    EXPECT_EQ(complement.end, before.end);
    EXPECT_EQ(complement.missing, before.missing);
    EXPECT_TRUE(table.empty());
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

// Row numbers are 32-bit (DESIGN.md §4a). The checked constructor takes
// every row that fits and aborts on one that does not, on either side.
TEST(MatchTableTest, TuplePairHoldsEveryThirtyTwoBitRow) {
  const TuplePair top{size_t{UINT32_MAX}, size_t{UINT32_MAX}};
  EXPECT_EQ(top.r_index, UINT32_MAX);
  EXPECT_EQ(top.s_index, UINT32_MAX);
  EXPECT_DEATH((void)TuplePair(size_t{1} << 32, 0), "CHECK failed");
  EXPECT_DEATH((void)TuplePair(0, size_t{1} << 32), "CHECK failed");
  EXPECT_DEATH((void)TuplePair(SIZE_MAX, SIZE_MAX), "CHECK failed");
}

// Negative tables over rows near the top of the 32-bit range keep
// row-major order: every comparison reads the full row numbers, checked
// here against an order on 64-bit integers. Matching tables are left
// out: their per-side index allocates one slot per row number.
TEST(MatchTableTest, NegativeTablesOrderRowsNearTheThirtyTwoBitLimit) {
  const std::vector<size_t> edges = {
      0, 1, (size_t{1} << 31) - 1, size_t{1} << 31, UINT32_MAX - 1,
      UINT32_MAX};
  using Key = std::pair<uint64_t, uint64_t>;
  auto key = [](const TuplePair& p) {
    return Key{p.r_index, p.s_index};
  };
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<TuplePair> drawn;
    std::set<Key> oracle;
    const size_t adds = 1 + rng.Below(2 * edges.size() * edges.size());
    MatchTable added(/*negative=*/true);
    for (size_t i = 0; i < adds; ++i) {
      const TuplePair pair{edges[rng.Below(edges.size())],
                           edges[rng.Below(edges.size())]};
      drawn.push_back(pair);
      oracle.insert(key(pair));
      EID_ASSERT_OK(added.Add(pair));  // in and out of order
    }
    std::vector<Key> want(oracle.begin(), oracle.end());
    auto keys = [&](const MatchTable& table) {
      std::vector<Key> out;
      for (const TuplePair& p : table.pairs()) out.push_back(key(p));
      return out;
    };
    EXPECT_EQ(keys(added), want);

    EID_ASSERT_OK_AND_ASSIGN(MatchTable folded,
                             MatchTable::FromPairs(/*negative=*/true, drawn));
    EXPECT_EQ(keys(folded), want);

    // Every s row is below 2^32, so that is the S the pairs are in.
    std::vector<TuplePair> sorted = added.pairs();
    ComplementRows none{size_t{1} << 32, {}, {}, {}};
    MatchTable adopted(/*negative=*/true);
    ASSERT_TRUE(adopted.AdoptRows(&sorted, &none));
    EXPECT_EQ(keys(adopted), want);
    if (added.size() > 1) {
      // The same list rotated by one wraps from the largest pair to the
      // smallest, which the order check must refuse.
      std::vector<TuplePair> rotated = added.pairs();
      std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
      ComplementRows also_none{size_t{1} << 32, {}, {}, {}};
      MatchTable refused(/*negative=*/true);
      EXPECT_FALSE(refused.AdoptRows(&rotated, &also_none));
    }

    for (size_t r : edges) {
      for (size_t s : edges) {
        const bool member = oracle.count(Key{r, s}) > 0;
        EXPECT_EQ(added.Contains(TuplePair{r, s}), member);
        EXPECT_EQ(folded.Contains(TuplePair{r, s}), member);
        EXPECT_EQ(adopted.Contains(TuplePair{r, s}), member);
      }
    }
  }
}

}  // namespace
}  // namespace eid
