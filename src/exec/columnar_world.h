// Shared columnar interned world (DESIGN.md §4g).
//
// Every stage of one identification session — extension, key join and
// the rule sweeps — reads the same string-backed rows. A ColumnarWorld is
// the single id-space those stages share: one append-only Value -> dense
// uint32_t dictionary plus one dense id vector per (relation slot,
// column), encoded at most once per session. Every stage takes the
// session's world by reference; a standalone entry point builds one of
// its own. NULL cells encode as kNullId (== ValueDictionary::kNotInterned)
// so the id layer keeps NULLs explicit: non_null_eq in a hot loop is the
// branch-free pair `valid &= (id != kNullId); eq = (id_r == id_s)` over
// contiguous uint32_t columns, and 3-valued semantics are decided by the
// caller from the precomputed mask, never by re-reading the Value.
//
// The world also owns one CSR posting index per (slot, column), built on
// first request from the column's ids (ColumnIndex below): every join
// inside Identify — the extended-key join and each rule sweep's equality
// probe and const-eq filter — reads these instead of hashing Values.
//
// Threading contract: the dictionary, columns and indexes grow only
// during the serial sections of a stage (compile/bind/build-side).
// Parallel workers see a fully built structure and only read
// (EID_SHARED_IMMUTABLE).

#ifndef EID_EXEC_COLUMNAR_WORLD_H_
#define EID_EXEC_COLUMNAR_WORLD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/value_dictionary.h"

namespace eid {
namespace exec {

/// Ascending row numbers of one posting list: a borrowed [begin, end)
/// window into a ColumnIndex, empty for an id the column does not hold.
struct PostingRange {
  const uint32_t* first = nullptr;
  const uint32_t* last = nullptr;

  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// CSR posting index over one id column (DESIGN.md §4a): `offsets` has
/// one entry per id of the id space the index was built with, plus one,
/// and the rows of id v are rows[offsets[v] .. offsets[v + 1]). Built in
/// one counting pass. Contracts:
///  * NULL cells (kNullId) are not indexed;
///  * rows are ascending within each id;
///  * an id at or beyond the build-time id space is an empty range — a
///    value interned after the build cannot be in the column;
///  * offsets cost 4 B per id of the id space.
/// EID_SHARED_IMMUTABLE: built serially, probed (Find, const) from every
/// worker.
class EID_SHARED_IMMUTABLE ColumnIndex {
 public:
  /// Indexes `ids` (one per row; kNullId or < `id_space`).
  static ColumnIndex Build(const std::vector<uint32_t>& ids, size_t id_space);

  /// Rows holding `id`, ascending; empty for kNullId and ids the column
  /// does not hold. Two array loads.
  PostingRange Find(uint32_t id) const {
    if (id >= id_space_) return {};
    const uint32_t* base = rows_.data();
    return PostingRange{base + offsets_[id], base + offsets_[id + 1]};
  }

  /// Ids with at least one row (distinct non-NULL values of the column).
  size_t distinct() const { return distinct_; }

 private:
  std::vector<uint32_t> offsets_;  // id_space_ + 1 entries
  std::vector<uint32_t> rows_;     // one per non-NULL cell
  size_t id_space_ = 0;
  size_t distinct_ = 0;
};

/// The four relation slots of one matcher session. Slots are fixed by
/// pipeline role rather than keyed by Relation* because relations move
/// between stages (ExtensionResult / MatcherResult moves change
/// addresses while the rows persist).
enum class WorldRel : size_t { kR = 0, kS = 1, kRExtended = 2, kSExtended = 3 };

inline constexpr size_t kWorldRelCount = 4;

/// Snapshot handoff payload: the saved dictionary in first-intern order
/// plus the source relations as dense id matrices (column-major, one id
/// vector per attribute, NULL cells already mapped to kNullId). Seeding a
/// ColumnarWorld from this makes a snapshot cold start pay zero
/// re-interning before Identify.
struct ColumnarSeeds {
  std::vector<Value> dictionary;
  std::vector<std::vector<uint32_t>> r_columns;
  std::vector<std::vector<uint32_t>> s_columns;
};

/// One id-space for the whole matcher pipeline: the shared dictionary
/// plus lazily encoded per-column id vectors for the session's four
/// relation slots. Encode-once is observable: serving an already-encoded
/// column bumps reuse_hits by its row count instead of re-hashing rows,
/// and every encode's wall time lands in encode_ms.
class ColumnarWorld {
 public:
  /// NULL sentinel in id columns. Equal to ValueDictionary::kNotInterned,
  /// so "never interned" and "NULL" coincide: neither can satisfy
  /// non_null_eq against anything.
  static constexpr uint32_t kNullId = ValueDictionary::kNotInterned;

  ValueDictionary& dict() { return dict_; }
  const ValueDictionary& dict() const { return dict_; }

  /// Ids for column `c` of `rel`, which must be the relation currently
  /// bound to `slot`. Encodes on first request (NULL -> kNullId), serves
  /// the cached column afterwards. Serial sections only. The returned
  /// reference's data() stays valid for the session (inner buffers move
  /// intact when the column table grows).
  const std::vector<uint32_t>& Column(WorldRel slot, const Relation& rel,
                                      size_t c);

  /// Already-encoded ids for (slot, c), or nullptr. Const — safe from
  /// parallel readers once the serial build phase is over.
  const std::vector<uint32_t>* FindColumn(WorldRel slot, size_t c) const;

  /// Posting index over Column(slot, rel, c), built on first request
  /// (encoding the column first if needed) and served from the world
  /// afterwards. Serial sections only; the reference stays valid until
  /// Adopt drops the column. Building reads the column without
  /// counting a reuse hit: an index is not an encode.
  const ColumnIndex& Index(WorldRel slot, const Relation& rel, size_t c);

  /// Installs externally built ids for (slot, c) — how extension output
  /// hands its columns to the join without re-encoding. Replaces any
  /// previous encoding of the column and drops its index.
  void Adopt(WorldRel slot, size_t c, std::vector<uint32_t> ids);

  /// Seeds the session from a snapshot: preloads the dictionary (ids
  /// stay byte-identical to the saved world) and adopts the source
  /// relation id matrices into the kR / kS slots. Every seeded id counts
  /// as a reuse hit — it is an encode this session never performs.
  void Seed(const ColumnarSeeds& seeds);

  /// Total wall time spent encoding Values into ids, in ms.
  double encode_ms() const { return encode_ms_; }

  /// Ids served without encoding: cached-column rows re-served plus
  /// snapshot-seeded dictionary entries and column cells.
  size_t reuse_hits() const { return reuse_hits_; }

 private:
  struct Slot {
    // One entry per attribute once touched; empty vector + present=false
    // means "not encoded yet".
    std::vector<std::vector<uint32_t>> columns;
    std::vector<bool> present;
    // Posting index per column once built; null = not built yet.
    std::vector<std::unique_ptr<ColumnIndex>> indexes;
  };

  // Grown only in serial sections; read-only for parallel workers.
  ValueDictionary dict_;
  std::array<Slot, kWorldRelCount> slots_;
  double encode_ms_ = 0;
  size_t reuse_hits_ = 0;
};

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_COLUMNAR_WORLD_H_
