// Matching table MT_RS and negative matching table NMT_RS (paper §3.2).
//
// Each entry pairs one R tuple with one S tuple. Because a tuple is
// uniquely identified within its relation by its candidate-key values, the
// printable table form consists of the two key-value lists (paper Table 7).
// Two constraints govern MT (paper §3.2):
//
//   Uniqueness   — no tuple in either relation is matched to more than one
//                  tuple in the other relation;
//   Consistency  — no pair appears in both MT and NMT.
//
// NMT entries carry no uniqueness constraint (a tuple is distinct from many
// tuples), and an NMT can hold almost every pair of R×S (Proposition 1's
// rules certify 99.95 % of the pairs of a fully covered world), so it
// stores a row that holds most of S by its complement. MatchTable stores
// row-index pairs; it is a value type with no pointers into the
// relations, which are supplied again when a printable relation is
// requested.

#ifndef EID_EID_MATCH_TABLES_H_
#define EID_EID_MATCH_TABLES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace eid {

/// One matched (or non-matched) pair, by row index into the two relations.
/// Row numbers are 32-bit (DESIGN.md §4a): the engine caps a relation
/// below 2^32 - 1 rows, so a pair is 8 bytes.
struct TuplePair {
  uint32_t r_index = 0;
  uint32_t s_index = 0;

  TuplePair() = default;
  /// Takes the caller's size_t rows and aborts when either does not fit
  /// in 32 bits. Not explicit, so `TuplePair{i, j}` and `{i, j}` build
  /// one from any row counters.
  TuplePair(size_t r, size_t s)
      : r_index(static_cast<uint32_t>(r)), s_index(static_cast<uint32_t>(s)) {
    EID_CHECK(r <= UINT32_MAX && s <= UINT32_MAX);
  }

  bool operator==(const TuplePair& other) const {
    return r_index == other.r_index && s_index == other.s_index;
  }
  bool operator<(const TuplePair& other) const {
    if (r_index != other.r_index) return r_index < other.r_index;
    return s_index < other.s_index;
  }
};
static_assert(sizeof(TuplePair) == 8);

/// The rows of a negative table stored by complement (DESIGN.md §4d):
/// row rows[k] holds every s < s_count except its missing list,
/// missing[end[k - 1] .. end[k]) (from 0 for k = 0), ascending.
struct ComplementRows {
  size_t s_count = 0;
  std::vector<uint32_t> rows;     // ascending
  std::vector<uint32_t> end;      // one per row
  std::vector<uint32_t> missing;  // ascending within each row

  bool empty() const { return rows.empty(); }
  /// Pairs the rows hold.
  size_t pairs() const {
    return rows.size() * s_count - missing.size();
  }
  /// The s rows row k does not hold.
  std::span<const uint32_t> Missing(size_t k) const {
    const uint32_t begin = k == 0 ? 0 : end[k - 1];
    return {missing.data() + begin, missing.data() + end[k]};
  }
  /// The position k of row `r` in `rows`, if it is stored by complement.
  std::optional<size_t> Find(size_t r) const;
};

/// A matching (or negative-matching) table over row-index pairs, with one
/// representation per kind:
///
///   MT  — pairs in insertion order (the order-sensitive uniqueness
///         verdict and pairs() depend on it) plus a flat per-side index
///         from row to its one pair; membership is a lookup in that index.
///   NMT — row-major rows, each explicit or complement: a strictly
///         increasing pair column holds the explicit rows, and
///         ComplementRows the rows that hold most of S. Membership is a
///         binary search; there is no per-side index, and pairs()
///         enumerates the complement rows on each call.
class MatchTable {
 public:
  /// `negative` selects NMT semantics (no uniqueness constraint).
  explicit MatchTable(bool negative = false) : negative_(negative) {}

  /// Rebuilds a table from a serialized pair list (snapshot load). A
  /// matching list re-runs Add's uniqueness checks in list order, so a
  /// corrupted list that violates uniqueness fails here instead of
  /// resurfacing later as an inconsistent table. A negative list is
  /// sorted and deduplicated; a strictly increasing one (what snapshots
  /// store) is taken by move.
  static Result<MatchTable> FromPairs(bool negative,
                                      std::vector<TuplePair> pairs);

  bool negative() const { return negative_; }
  size_t size() const { return pairs_.size() + complement_.pairs(); }
  bool empty() const { return size() == 0; }
  /// Insertion order for a matching table, row-major for a negative one.
  /// Built on each call: a negative table's complement rows are
  /// enumerated here, so a caller that reads it twice keeps one copy.
  std::vector<TuplePair> pairs() const;

  /// Negative tables: the pairs of the rows stored explicitly, row-major,
  /// and the rows stored by complement. No row is in both.
  const std::vector<TuplePair>& explicit_pairs() const { return pairs_; }
  const ComplementRows& complement_rows() const { return complement_; }

  /// Adds a pair; re-adding an existing pair is idempotent OK. For a
  /// matching table, violating the uniqueness constraint returns
  /// ConstraintViolation and leaves the table unchanged. A negative table
  /// appends the pair, or inserts it at its row-major position; it must
  /// hold no complement row (the sweep's tables are not added to).
  Status Add(TuplePair pair);

  /// Adopts the sweep's rows as this (empty, negative) table's storage by
  /// move, leaving both arguments empty: `explicit_pairs` strictly
  /// increasing row-major, every s below complement->s_count, and each
  /// complement row after its predecessor, on no row of an explicit pair,
  /// its missing list strictly increasing and below s_count. Checks
  /// exactly that. Returns false, with the table and both arguments
  /// unchanged, when some row list is out of order or range.
  bool AdoptRows(std::vector<TuplePair>* explicit_pairs,
                 ComplementRows* complement);

  bool Contains(const TuplePair& pair) const;

  /// True if the given R (S) row participates in a pair. Matching tables
  /// only: a negative table keeps no per-side index.
  bool HasR(size_t r_index) const {
    EID_CHECK(!negative_);
    return r_index < by_r_.size() && by_r_[r_index] != kNoPair;
  }
  bool HasS(size_t s_index) const {
    EID_CHECK(!negative_);
    return s_index < by_s_.size() && by_s_[s_index] != kNoPair;
  }

  /// The S row matched with R row `r_index`, if any (and the converse).
  /// Matching tables only.
  std::optional<size_t> MatchOfR(size_t r_index) const;
  std::optional<size_t> MatchOfS(size_t s_index) const;

  /// The printable relation form over the relations the indices refer to:
  /// key attributes of R prefixed "R.", then key attributes of S prefixed
  /// "S." — the paper's Table 7 layout.
  Result<Relation> ToRelation(const Relation& r, const Relation& s,
                              const std::string& name = "MT") const;

  /// Consistency constraint (paper §3.2): no pair in both tables. `mt`
  /// must be positive and `nmt` negative.
  static Status CheckConsistency(const MatchTable& mt, const MatchTable& nmt);

 private:
  static constexpr uint32_t kNoPair = UINT32_MAX;

  bool negative_ = false;
  std::vector<TuplePair> pairs_;
  // Negative tables only: the rows stored by complement.
  ComplementRows complement_;
  // Matching tables only: the index into pairs_ of each row's pair
  // (kNoPair = unmatched). Row indices are dense and bounded by the
  // relation sizes, so a flat vector serves as the map; a matching table
  // holds at most one pair per row, so its indices fit in 32 bits too.
  std::vector<uint32_t> by_r_;
  std::vector<uint32_t> by_s_;
};

}  // namespace eid

#endif  // EID_EID_MATCH_TABLES_H_
