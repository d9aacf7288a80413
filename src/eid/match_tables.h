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
#include <span>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace eid {

/// One matched (or non-matched) pair, by row index into the two relations.
struct TuplePair {
  size_t r_index = 0;
  size_t s_index = 0;

  bool operator==(const TuplePair& other) const {
    return r_index == other.r_index && s_index == other.s_index;
  }
  bool operator<(const TuplePair& other) const {
    if (r_index != other.r_index) return r_index < other.r_index;
    return s_index < other.s_index;
  }
};

struct TuplePairHash {
  size_t operator()(const TuplePair& p) const {
    // splitmix64-style mix of the two indices.
    uint64_t h = static_cast<uint64_t>(p.r_index) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<uint64_t>(p.s_index) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// Flat open-addressing membership set over row-index pairs, packed into
/// one uint64_t per entry (32 bits per side — a relation of 4G rows is
/// far beyond the in-RAM world this engine serves, and Pack checks).
/// A dense NMT inserts tens of millions of pairs; the node-based
/// std::unordered_set paid one allocation plus pointer chases per pair,
/// which dominated dense `identify` runs. Here an insert is one
/// linear-probe over a contiguous power-of-two array and teardown is a
/// single free.
class PackedPairSet {
 public:
  static uint64_t Pack(const TuplePair& p);

  /// Pre-sizes for `n` pairs (NMT construction knows the fired-pair
  /// count up front; growth doubles otherwise).
  void Reserve(size_t n);

  /// Inserts `key`; returns false if it was already present.
  bool Insert(uint64_t key);
  bool Contains(uint64_t key) const;

  /// Warms the cache line of `key`'s home slot. Bulk loaders issue this a
  /// few keys ahead of Insert: the table is far larger than cache for a
  /// dense NMT, and without the hint every insert stalls on one
  /// dependent DRAM access.
  void PrefetchSlot(uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(slots_.data() + (MixKey(key) & mask_), 1, 0);
    }
  }

  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~0ull;  // Pack() can never produce it

  /// splitmix64 finalizer — the probe hash. Full-avalanche so consecutive
  /// row pairs (the NMT's row-major insertion order) spread across the
  /// table instead of clustering a linear probe.
  static uint64_t MixKey(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  void Grow(size_t min_slots);

  std::vector<uint64_t> slots_;  // kEmpty-filled, power-of-two length
  uint64_t mask_ = 0;
  size_t size_ = 0;
};

/// A matching (or negative-matching) table over row-index pairs.
class MatchTable {
 public:
  /// `negative` selects NMT semantics (no uniqueness constraint).
  explicit MatchTable(bool negative = false) : negative_(negative) {}

  /// Rebuilds a table from a serialized pair list (snapshot load),
  /// re-running the Add-path constraint checks — a corrupted pair list
  /// that violates uniqueness fails here instead of resurfacing later as
  /// an inconsistent table. A strictly increasing negative list is
  /// adopted by move (AdoptSorted); any other one takes the checked
  /// batch fold, which skips duplicates.
  static Result<MatchTable> FromPairs(bool negative,
                                      std::vector<TuplePair> pairs);

  bool negative() const { return negative_; }
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::vector<TuplePair>& pairs() const { return pairs_; }

  /// Adds a pair. For a (positive) matching table, violating the
  /// uniqueness constraint returns ConstraintViolation and leaves the
  /// table unchanged; re-adding an existing pair is idempotent OK.
  Status Add(TuplePair pair);

  /// Adopts `*pairs` as this (empty, negative) table's storage by move,
  /// leaving `*pairs` empty. Requires a strictly increasing row-major
  /// list — what the staged sweep emits and snapshots serialize; the
  /// one pass that checks the order also records the per-side first
  /// indexes, so no pair is copied. Returns false, with the table and
  /// `*pairs` unchanged, when the list is not strictly increasing.
  bool AdoptSorted(std::vector<TuplePair>* pairs);

  /// Pre-sizes the pair store and lookup structures for `n` pairs (NMT
  /// construction knows the fired-pair count up front).
  void Reserve(size_t n);

  bool Contains(const TuplePair& pair) const;

  /// True if the given R (S) row already participates in some pair.
  bool HasR(size_t r_index) const {
    return r_index < by_r_.size() && by_r_[r_index] != kNoPair;
  }
  bool HasS(size_t s_index) const {
    return s_index < by_s_.size() && by_s_[s_index] != kNoPair;
  }

  /// The S row matched with R row `r_index`, if any. For negative tables
  /// (where several pairs may share an index) the first added is returned.
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
  static constexpr size_t kNoPair = SIZE_MAX;

  /// One-time switch from sorted-order membership to the hash set, built
  /// from the pairs already stored; called on the first out-of-order Add.
  void MigrateToHash();

  /// Bulk form of Add for negative tables. Same semantics as one Add per
  /// pair — duplicates are skipped idempotently — but the membership
  /// probes are issued with a prefetch pipeline: a dense NMT's probe
  /// table far exceeds cache, and the serial Add loop stalled on one
  /// dependent DRAM access per pair.
  void AddNegativeBatch(std::span<const TuplePair> pairs);

  bool negative_ = false;
  // True while every added pair has been strictly greater (row-major)
  // than its predecessor — the order the staged fold emits and snapshots
  // serialize. While it holds, membership is a binary search over
  // `pairs_` and no side structure is maintained at all: building a hash
  // set over a dense NMT's tens of millions of pairs was the single
  // hottest site in dense `identify` profiles, and nothing probes NMT
  // membership often enough during identification to repay it.
  bool sorted_ = true;
  std::vector<TuplePair> pairs_;
  // Hash membership, populated by MigrateToHash on the first
  // out-of-order Add (incremental updates) and authoritative from then
  // on. Flat open addressing: the node-based std::unordered_set paid an
  // allocation plus pointer chases per pair.
  PackedPairSet members_;
  // First pair index per side (kNoPair = absent), for uniqueness checks
  // and lookups. Row indices are dense and bounded by the relation
  // sizes, so a flat vector beats a hash map: the NMT path writes these
  // once per pair.
  std::vector<size_t> by_r_;
  std::vector<size_t> by_s_;
};

}  // namespace eid

#endif  // EID_EID_MATCH_TABLES_H_
