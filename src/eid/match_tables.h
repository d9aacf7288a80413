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
// Uniqueness binds MT alone, so MatchTable checks it on every Add. NMT
// entries carry no uniqueness constraint (a tuple is distinct from many
// tuples), and an NMT is built once by the distinctness sweep: it is its
// own type, eid::NegativeTable (eid/negative.h), and CheckConsistency
// relates the two. Both store row-index pairs; they are value types with
// no pointers into the relations, which are supplied again when a
// printable relation is requested.

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

class NegativeTable;

/// The printable relation form of `pairs` over the relations the indices
/// refer to: key attributes of R prefixed "R.", then key attributes of S
/// prefixed "S." — the paper's Table 7 layout. What both tables'
/// ToRelation return.
Result<Relation> PairsToRelation(const std::vector<TuplePair>& pairs,
                                 const Relation& r, const Relation& s,
                                 const std::string& name);

/// The matching table MT: pairs in insertion order (the order-sensitive
/// uniqueness verdict and pairs() depend on it) plus a flat per-side index
/// from row to its one pair; membership is a lookup in that index. The
/// negative table is its own type (eid/negative.h).
class MatchTable {
 public:
  /// Rebuilds a table from a serialized pair list (snapshot load),
  /// re-running Add's uniqueness checks in list order, so a corrupted
  /// list that violates uniqueness fails here instead of resurfacing
  /// later as an inconsistent table.
  static Result<MatchTable> FromPairs(const std::vector<TuplePair>& pairs);

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  /// Insertion order.
  const std::vector<TuplePair>& pairs() const { return pairs_; }

  /// Adds a pair; re-adding an existing pair is idempotent OK. Violating
  /// the uniqueness constraint returns ConstraintViolation and leaves the
  /// table unchanged.
  Status Add(TuplePair pair);

  bool Contains(const TuplePair& pair) const {
    return HasR(pair.r_index) &&
           pairs_[by_r_[pair.r_index]].s_index == pair.s_index;
  }

  /// True if the given R (S) row participates in a pair.
  bool HasR(size_t r_index) const {
    return r_index < by_r_.size() && by_r_[r_index] != kNoPair;
  }
  bool HasS(size_t s_index) const {
    return s_index < by_s_.size() && by_s_[s_index] != kNoPair;
  }

  /// The S row matched with R row `r_index`, if any (and the converse).
  std::optional<size_t> MatchOfR(size_t r_index) const;
  std::optional<size_t> MatchOfS(size_t s_index) const;

  /// PairsToRelation over pairs().
  Result<Relation> ToRelation(const Relation& r, const Relation& s,
                              const std::string& name = "MT") const {
    return PairsToRelation(pairs_, r, s, name);
  }

  /// Consistency constraint (paper §3.2): no pair in both tables.
  static Status CheckConsistency(const MatchTable& mt,
                                 const NegativeTable& nmt);

 private:
  static constexpr uint32_t kNoPair = UINT32_MAX;

  std::vector<TuplePair> pairs_;
  // The index into pairs_ of each row's pair (kNoPair = unmatched). Row
  // indices are dense and bounded by the relation sizes, so a flat vector
  // serves as the map; a matching table holds at most one pair per row,
  // so its indices fit in 32 bits too.
  std::vector<uint32_t> by_r_;
  std::vector<uint32_t> by_s_;
};

}  // namespace eid

#endif  // EID_EID_MATCH_TABLES_H_
