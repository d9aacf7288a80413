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
// tuples). MatchTable stores row-index pairs; it is a value type with no
// pointers into the relations, which are supplied again when a printable
// relation is requested.

#ifndef EID_EID_MATCH_TABLES_H_
#define EID_EID_MATCH_TABLES_H_

#include <cstdint>
#include <optional>
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

/// A matching (or negative-matching) table over row-index pairs, with one
/// representation per kind:
///
///   MT  — pairs in insertion order (the order-sensitive uniqueness
///         verdict and pairs() depend on it) plus a flat per-side index
///         from row to its one pair; membership is a lookup in that index.
///   NMT — a strictly increasing row-major pair column, the order the
///         staged sweep emits and snapshots store; membership is a binary
///         search, and there is no per-side index.
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
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  /// Insertion order for a matching table, row-major for a negative one.
  const std::vector<TuplePair>& pairs() const { return pairs_; }

  /// Adds a pair; re-adding an existing pair is idempotent OK. For a
  /// matching table, violating the uniqueness constraint returns
  /// ConstraintViolation and leaves the table unchanged. A negative table
  /// appends the pair, or inserts it at its row-major position.
  Status Add(TuplePair pair);

  /// Adopts `*pairs` as this (empty, negative) table's storage by move,
  /// leaving `*pairs` empty. Requires a strictly increasing row-major
  /// list — what the staged sweep emits and snapshots serialize — and
  /// only checks that order. Returns false, with the table and `*pairs`
  /// unchanged, when the list is not strictly increasing.
  bool AdoptSorted(std::vector<TuplePair>* pairs);

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
  // Matching tables only: the index into pairs_ of each row's pair
  // (kNoPair = unmatched). Row indices are dense and bounded by the
  // relation sizes, so a flat vector serves as the map; a matching table
  // holds at most one pair per row, so its indices fit in 32 bits too.
  std::vector<uint32_t> by_r_;
  std::vector<uint32_t> by_s_;
};

}  // namespace eid

#endif  // EID_EID_MATCH_TABLES_H_
