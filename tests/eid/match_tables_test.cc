// MatchTable and NegativeTable against a std::set oracle (paper §3.2): a
// matching table keeps its pairs in insertion order and answers membership
// and per-side lookups from its row index; a negative table is built once,
// from a pair list or from a sweep's rows, each row a strictly increasing
// pair column or, when it holds more than half of S, its complement with
// the rules that fired on it. Randomized cases draw pairs from a small
// grid so that re-adds, uniqueness conflicts, out-of-order lists and rows
// on either side of half of S are all frequent.

#include "eid/match_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "eid/negative.h"
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

/// Pairs with their certificates: the oracle of a negative table.
using Certified = std::map<TuplePair, uint32_t>;

/// Checks every observable of `table` against `members` over a grid one
/// row and one column wider than the one pairs were drawn from. With
/// `certified`, the table's certificates are the members' values; without,
/// the table carries none.
void ExpectNegativeTableEquals(const NegativeTable& table,
                               const Certified& members, size_t rows,
                               size_t cols, bool certified) {
  ASSERT_EQ(table.size(), members.size());
  EXPECT_EQ(table.empty(), members.empty());
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> certificates;
  for (const auto& [pair, certificate] : members) {
    pairs.push_back(pair);
    if (certified) certificates.push_back(certificate);
  }
  EXPECT_EQ(table.pairs(), pairs);  // row-major
  EXPECT_EQ(table.certificates(), certificates);
  for (size_t r = 0; r <= rows; ++r) {
    for (size_t s = 0; s <= cols; ++s) {
      const TuplePair pair{r, s};
      const auto it = members.find(pair);
      EXPECT_EQ(table.Contains(pair), it != members.end())
          << "(" << r << ", " << s << ")";
      const std::optional<NegativePairEvidence> evidence =
          table.EvidenceFor(pair);
      ASSERT_EQ(evidence.has_value(), certified && it != members.end())
          << "(" << r << ", " << s << ")";
      if (evidence.has_value()) {
        EXPECT_EQ(evidence->rule_index, it->second / 2);
        EXPECT_EQ(evidence->flipped, (it->second & 1) != 0);
      }
    }
  }
}

/// `members` with no certificates.
Certified Uncertified(const std::set<TuplePair>& members) {
  Certified out;
  for (const TuplePair& p : members) out.emplace(p, 0);
  return out;
}

/// Each member with a certificate below 6, drawn from `rng`.
Certified Certify(Rng& rng, const std::set<TuplePair>& members) {
  Certified out;
  for (const TuplePair& p : members) {
    out.emplace(p, static_cast<uint32_t>(rng.Below(6)));
  }
  return out;
}

/// The sweep's encoding of `members` over an S of `cols` rows: a row
/// holding more than half of S is stored by complement, every other row
/// explicitly. A complement row's pairs are certified by one list rule
/// per certificate, ascending, each of which may also hold pairs a lower
/// one certified, and some by exceptions that no lower rule holds — the
/// shapes the sweep writes.
exec::FiredRows Encode(Rng& rng, const Certified& members, size_t rows,
                       size_t cols) {
  exec::FiredRows out;
  out.complement.s_count = cols;
  auto rules = std::make_shared<exec::RowRules>(cols);
  exec::ComplementCertificates& c = out.certificates;
  c.rules = rules;
  for (size_t r = 0; r < rows; ++r) {
    std::map<uint32_t, uint32_t> held;  // s -> certificate
    for (size_t s = 0; s < cols; ++s) {
      const auto it = members.find(TuplePair{r, s});
      if (it != members.end()) held.emplace(s, it->second);
    }
    if (2 * held.size() <= cols) {
      for (const auto& [s, certificate] : held) {
        out.pairs.push_back(TuplePair{r, s});
        out.priorities.push_back(certificate);
      }
      continue;
    }
    out.complement.rows.push_back(static_cast<uint32_t>(r));
    for (size_t s = 0; s < cols; ++s) {
      if (held.count(static_cast<uint32_t>(s)) == 0) {
        out.complement.missing.push_back(static_cast<uint32_t>(s));
      }
    }
    out.complement.end.push_back(
        static_cast<uint32_t>(out.complement.missing.size()));
    std::map<uint32_t, std::vector<uint32_t>> lists;  // certificate -> s
    for (const auto& [s, certificate] : held) {
      if (rng.Chance(0.2)) {
        c.exception_s.push_back(s);
        c.exception_priority.push_back(certificate);
        continue;
      }
      lists[certificate];  // the list of a higher certificate may hold s
      for (auto& [priority, list] : lists) {
        if (priority == certificate ||
            (priority > certificate && rng.Chance(0.3))) {
          list.push_back(s);
        }
      }
    }
    for (auto& [priority, list] : lists) {
      std::sort(list.begin(), list.end());
      c.fired.push_back(rules->AddList(priority, list));
    }
    c.fired_end.push_back(static_cast<uint32_t>(c.fired.size()));
    c.exceptions_end.push_back(static_cast<uint32_t>(c.exception_s.size()));
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
    MatchTable table;
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

TEST(NegativeTableTest, RandomizedPairListsAgreeWithOracle) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = 1 + rng.Below(8);
    const size_t cols = 1 + rng.Below(8);
    // Odd seeds list in row-major order (what snapshots store) with
    // repeats of the last pair; even seeds list anywhere.
    const bool row_major = seed % 2 == 1;
    std::vector<TuplePair> list;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t s = 0; s < cols; ++s) {
        if (rng.Chance(0.4)) list.push_back(TuplePair{r, s});
        if (!list.empty() && rng.Chance(0.1)) list.push_back(list.back());
      }
    }
    if (!row_major) {
      for (size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1], list[rng.Below(i)]);
      }
      const size_t extra = rng.Below(rows * cols + 1);
      for (size_t i = 0; i < extra; ++i) {
        list.push_back(RandomPair(rng, rows, cols));
      }
    }
    const std::set<TuplePair> members(list.begin(), list.end());
    ExpectNegativeTableEquals(NegativeTable::FromPairs(list),
                              Uncertified(members), rows, cols,
                              /*certified=*/false);
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

    // Negative: sorted and deduplicated, whatever the list's order, with
    // no certificates.
    const std::set<TuplePair> listed(list.begin(), list.end());
    ExpectNegativeTableEquals(NegativeTable::FromPairs(list),
                              Uncertified(listed), rows, cols,
                              /*certified=*/false);
    // The same set, certified, with its rows that cross half of S stored
    // by complement.
    const Certified certified = Certify(rng, listed);
    EID_ASSERT_OK_AND_ASSIGN(
        NegativeTable from_rows,
        NegativeTable::FromRows(Encode(rng, certified, rows, cols)));
    ExpectNegativeTableEquals(from_rows, certified, rows, cols,
                              /*certified=*/true);

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
    Result<MatchTable> matching = MatchTable::FromPairs(list);
    ASSERT_EQ(matching.status().code(), want.code());
    if (want.ok()) {
      ExpectMatchingTableEquals(*matching, accepted, rows, cols);
    } else {
      EXPECT_EQ(matching.status().message(), want.message());
    }

    // Consistency holds exactly when the two tables share no pair,
    // whether the NMT is a pair list or rows in either encoding.
    if (matching.ok()) {
      std::vector<TuplePair> nmt_list;
      std::set<TuplePair> dense = RandomRows(rng, rows, cols);
      for (const TuplePair& p : list) {
        if (!matching->Contains(p) || rng.Chance(0.2)) {
          nmt_list.push_back(p);
        } else {
          dense.erase(p);
        }
      }
      const Certified dense_certified = Certify(rng, dense);
      EID_ASSERT_OK_AND_ASSIGN(
          NegativeTable dense_nmt,
          NegativeTable::FromRows(Encode(rng, dense_certified, rows, cols)));
      ExpectNegativeTableEquals(dense_nmt, dense_certified, rows, cols,
                                /*certified=*/true);
      NegativeTable listed_nmt = NegativeTable::FromPairs(nmt_list);
      for (const NegativeTable* table : {&listed_nmt, &dense_nmt}) {
        const std::set<TuplePair> members = [&] {
          const std::vector<TuplePair> pairs = table->pairs();
          return std::set<TuplePair>(pairs.begin(), pairs.end());
        }();
        bool overlap = false;
        for (const TuplePair& p : matching->pairs()) {
          overlap = overlap || members.count(p) > 0;
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
    const Certified members = Certify(rng, RandomRows(rng, rows, cols));
    exec::FiredRows encoded = Encode(rng, members, rows, cols);
    // Every other seed breaks one row list: an explicit pair repeated or
    // swapped, a complement row repeated, on an explicit pair's row, or
    // missing an s row twice or one beyond S.
    const bool break_order = seed % 2 == 0;
    if (break_order) {
      std::vector<TuplePair>& pairs = encoded.pairs;
      exec::ComplementRows& complement = encoded.complement;
      const uint64_t how = rng.Below(5);
      if (how == 0 && pairs.size() >= 2) {
        const size_t at = 1 + rng.Below(pairs.size() - 1);
        std::swap(pairs[at], pairs[at - 1]);
      } else if (how == 1 && !pairs.empty()) {
        pairs.insert(pairs.begin() + rng.Below(pairs.size()), pairs.front());
        std::sort(pairs.begin(), pairs.end());
        encoded.priorities.push_back(0);
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
          exec::ComplementCertificates& c = encoded.certificates;
          c.fired_end.push_back(static_cast<uint32_t>(c.fired.size()));
          c.exceptions_end.push_back(
              static_cast<uint32_t>(c.exception_s.size()));
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
    const Result<NegativeTable> table =
        NegativeTable::FromRows(std::move(encoded));
    if (break_order) {
      EXPECT_EQ(table.status().code(), StatusCode::kInternal);
    } else {
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ExpectNegativeTableEquals(*table, members, rows, cols,
                                /*certified=*/true);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

/// Explicit rows of `pairs` over an S of `s_count` rows, each pair
/// certified by priority 0: rows come with their certificates.
exec::FiredRows ExplicitRows(std::vector<TuplePair> pairs, size_t s_count) {
  exec::FiredRows rows;
  rows.priorities.assign(pairs.size(), 0);
  rows.pairs = std::move(pairs);
  rows.complement.s_count = s_count;
  return rows;
}

// The NMT adopt contract (DESIGN.md §4d): strictly increasing row lists
// in range are taken by move after one pass of checks, anything else is
// an Internal error, and FromPairs sorts and deduplicates a list instead.
TEST(MatchTableTest, AdoptRowsTakesStrictlyIncreasingPairs) {
  exec::FiredRows rows = ExplicitRows({{0, 1}, {0, 3}, {2, 0}, {2, 1}}, 5);
  rows.priorities = {4, 0, 2, 2};
  // Row 1 holds every s row of 5 but 2 and 4; row 3 holds all 5, s row 3
  // by an exception.
  rows.complement = exec::ComplementRows{5, {1, 3}, {2, 2}, {2, 4}};
  auto rules = std::make_shared<exec::RowRules>(5);
  exec::ComplementCertificates& c = rows.certificates;
  c.rules = rules;
  c.fired = {rules->AddList(1, {0, 1, 3}), rules->AddList(6, {0, 1, 2, 4})};
  c.fired_end = {1, 2};
  c.exception_s = {3};
  c.exception_priority = {5};
  c.exceptions_end = {0, 1};
  EID_ASSERT_OK_AND_ASSIGN(NegativeTable table,
                           NegativeTable::FromRows(std::move(rows)));
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
  EXPECT_EQ(table.certificates(),
            (std::vector<uint32_t>{4, 0, 1, 1, 1, 2, 2, 6, 6, 6, 5, 6}));
  EXPECT_EQ(table.EvidenceFor(TuplePair{3, 3})->rule_index, 2u);
  EXPECT_TRUE(table.EvidenceFor(TuplePair{3, 3})->flipped);
  EXPECT_FALSE(table.EvidenceFor(TuplePair{1, 2}).has_value());
  // Copies and moves keep the rows and their certificates.
  const NegativeTable copy = table;
  const NegativeTable moved = std::move(table);
  for (const NegativeTable* t : {&copy, &moved}) {
    EXPECT_EQ(t->size(), 12u);
    EXPECT_EQ(t->certificates(), copy.certificates());
  }
}

TEST(MatchTableTest, AdoptRowsRejectsUnsortedOrDuplicatePairs) {
  auto expect_refused = [](exec::FiredRows rows) {
    const Status status = NegativeTable::FromRows(std::move(rows)).status();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_EQ(status.message(),
              "distinctness sweep emitted pairs out of row-major order");
  };
  for (std::vector<TuplePair> pairs :
       {std::vector<TuplePair>{{0, 1}, {0, 1}},
        std::vector<TuplePair>{{1, 0}, {0, 5}},
        std::vector<TuplePair>{{0, 1}, {1, 6}}}) {  // s beyond S
    expect_refused(ExplicitRows(std::move(pairs), 6));
  }
  // A complement row on an explicit pair's row, rows out of order, a
  // missing list out of order or beyond S, ends out of order, and
  // missing rows no row owns.
  for (exec::ComplementRows complement :
       {exec::ComplementRows{6, {0}, {0}, {}},
        exec::ComplementRows{6, {3, 2}, {0, 0}, {}},
        exec::ComplementRows{6, {2}, {2}, {3, 1}},
        exec::ComplementRows{6, {2}, {1}, {6}},
        exec::ComplementRows{6, {2, 3}, {2, 1}, {1, 4}},
        exec::ComplementRows{6, {}, {}, {1}}}) {
    exec::FiredRows rows = ExplicitRows({{0, 1}}, 6);
    const size_t n = complement.rows.size();
    rows.complement = std::move(complement);
    rows.certificates.fired_end.assign(n, 0);
    rows.certificates.exceptions_end.assign(n, 0);
    expect_refused(std::move(rows));
  }
}

TEST(MatchTableTest, FromPairsFoldsUnsortedNegativeLists) {
  const NegativeTable table =
      NegativeTable::FromPairs({{3, 1}, {0, 2}, {3, 1}, {1, 1}, {0, 2}});
  EXPECT_EQ(table.size(), 3u);  // duplicates skipped
  for (const TuplePair& p :
       {TuplePair{3, 1}, TuplePair{0, 2}, TuplePair{1, 1}}) {
    EXPECT_TRUE(table.Contains(p));
  }
  EXPECT_FALSE(table.Contains(TuplePair{1, 2}));
  EXPECT_EQ(table.pairs(),
            (std::vector<TuplePair>{{0, 2}, {1, 1}, {3, 1}}));  // row-major
  EXPECT_TRUE(table.certificates().empty());
  EXPECT_FALSE(table.EvidenceFor(TuplePair{0, 2}).has_value());
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
    const size_t n = 1 + rng.Below(2 * edges.size() * edges.size());
    for (size_t i = 0; i < n; ++i) {
      const TuplePair pair{edges[rng.Below(edges.size())],
                           edges[rng.Below(edges.size())]};
      drawn.push_back(pair);  // in and out of order
      oracle.insert(key(pair));
    }
    std::vector<Key> want(oracle.begin(), oracle.end());
    auto keys = [&](const NegativeTable& table) {
      std::vector<Key> out;
      for (const TuplePair& p : table.pairs()) out.push_back(key(p));
      return out;
    };
    const NegativeTable folded = NegativeTable::FromPairs(drawn);
    EXPECT_EQ(keys(folded), want);

    // Every s row is below 2^32, so that is the S the pairs are in.
    EID_ASSERT_OK_AND_ASSIGN(
        NegativeTable adopted,
        NegativeTable::FromRows(
            ExplicitRows(folded.pairs(), size_t{1} << 32)));
    EXPECT_EQ(keys(adopted), want);
    if (folded.size() > 1) {
      // The same list rotated by one wraps from the largest pair to the
      // smallest, which the order check must refuse.
      std::vector<TuplePair> rotated = folded.pairs();
      std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
      EXPECT_FALSE(NegativeTable::FromRows(
                       ExplicitRows(std::move(rotated), size_t{1} << 32))
                       .ok());
    }

    for (size_t r : edges) {
      for (size_t s : edges) {
        const bool member = oracle.count(Key{r, s}) > 0;
        EXPECT_EQ(folded.Contains(TuplePair{r, s}), member);
        EXPECT_EQ(adopted.Contains(TuplePair{r, s}), member);
      }
    }
  }
}

}  // namespace
}  // namespace eid
