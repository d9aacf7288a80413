// Staged candidate generation for pairwise rule sweeps.
//
// The paper's definition evaluates every rule's full antecedent over the
// cross product per orientation — O(|R|·|S|) conjunction evaluations
// (eid::reference does exactly that). CandidateGenerator runs all rule
// orientations in one r-major sweep through two stages:
//
//   1. *Blocking intersection.* Each (rule, orientation) contributes a
//      ColumnPlan (exec/blocking_index.h): a BlockingPlan with its names
//      resolved, or a Proposition 1 rule built straight from its ILFD's
//      atoms. Its const-eq filters prune the r rows an entry is
//      consulted for (the per-row entry lists below are that
//      intersection), and its probed join conjunct (ChooseProbe) turns
//      the inner loop into one posting-range read:
//      the r row's id in the shared id column selects the s rows from
//      the column's CSR index (exec::ColumnIndex, owned by the session's
//      ColumnarWorld). No Value is hashed inside the sweep. A const-eq
//      conjunct whose constant its column does not hold — never
//      interned, or an empty posting range — kills the whole orientation
//      at registration.
//      Rules with no indexable conjunct fall back to a scan list —
//      principled, not silent: the analyzer flags them (EID-W009).
//   2. *Residual evaluation with feature hoisting.* The conjuncts the
//      enumeration already enforces (PredicateCoverage::kCovered) are
//      skipped; conjuncts reading only the r-side row are evaluated once
//      per row and reused across every candidate pair of that row
//      (counted as feature_cache_hits); only the true pair residual runs
//      in the inner loop, one PairTruth call per candidate, through a
//      StagedEvaluator the caller supplies (compile::StagedConjunction).
//      Describable entries skip that call: the set of s rows they fire
//      on a row does not depend on evaluating each pair (RowRule).
//
// Output (DESIGN.md §4d): each r row's fired set is stored in whichever
// of two encodings is smaller. A row no describable entry fired on, or
// one that fired on at most half of S, is *explicit*: its fired s rows,
// ascending, each with its priority. A row a describable entry fired on
// that holds more than half of S is *complement*: the s rows that did not
// fire, the describable entries that fired on it, and the pairs other
// entries fired on it one at a time (exceptions). A Proposition 1 NMT is
// almost all complement rows, so the sweep writes no pair of it.
//
// Exactness: a conjunction is kTrue iff every conjunct is kTrue, covered
// conjuncts are kTrue on every enumerated candidate by construction, and
// the enumeration is complete for kTrue (storage equality is exactly
// CompareValues-kEq on non-NULL operands). Stages may over-approximate
// the candidate set, never under-approximate it.
//
// Determinism and ordering: rows are swept r-major in position-addressed
// chunks with per-chunk output buffers; per row, entries are consulted in
// ascending (rule, orientation) priority and each fired pair's
// certificate is the *lowest* priority that fires it. Materialised
// (FiredRows::Materialize), the output is the row-major sorted pair list
// with first-(rule,orientation)-wins evidence — bit-identical to
// eid::reference's nested-loop fold — for any thread count. Describable
// entries and the row encodings change how a pair is found and stored,
// never which pairs, priorities or counters come out.

#ifndef EID_EXEC_CANDIDATE_GENERATOR_H_
#define EID_EXEC_CANDIDATE_GENERATOR_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/thread_annotations.h"
#include "eid/match_tables.h"
#include "exec/blocking_index.h"
#include "exec/columnar_world.h"
#include "exec/thread_pool.h"

namespace eid {
namespace exec {

/// What PairTruth computes, when it is one of the shapes the sweep can
/// decide for a whole set of s rows without calling it.
struct PairShape {
  enum class Kind : uint8_t {
    kGeneral,         // anything else: PairTruth per candidate
    kEmpty,           // no pair conjunct: kTrue on every candidate
    kSNotEqual,       // one id conjunct `s.s_column != constant`: kTrue iff
                      // the s cell is non-NULL and not the constant's id
    kColumnNotEqual,  // one id conjunct `s.s_column != r.r_column`: kTrue
                      // iff both cells are non-NULL and their ids differ
  };
  Kind kind = Kind::kGeneral;
  size_t s_column = 0;  // kSNotEqual, kColumnNotEqual
  size_t r_column = 0;  // kColumnNotEqual
  uint32_t const_id = ColumnarWorld::kNullId;  // kSNotEqual only; non-NULL
};

/// Evaluates the residual (non-covered) conjuncts of one rule antecedent
/// for one orientation. Implementations must be EID_SHARED_IMMUTABLE:
/// constructed serially, then safe for concurrent read-only use (the
/// sweep calls RowTruth/PairTruth from every worker).
class EID_SHARED_IMMUTABLE StagedEvaluator {
 public:
  virtual ~StagedEvaluator() = default;

  /// The shape of the pair part; kGeneral is always a correct answer.
  virtual PairShape pair_shape() const = 0;

  /// True when some conjunct is evaluable from the r-side row alone.
  virtual bool has_row_part() const = 0;
  /// Kleene conjunction of the row-only conjuncts for r row `r_row`.
  /// Only called when has_row_part().
  virtual Truth RowTruth(size_t r_row) const = 0;
  /// Vectorized form of RowTruth over every r row in [0, n):
  /// out[r] == RowTruth(r). Only called when has_row_part().
  virtual std::vector<Truth> RowTruthAll(size_t n) const = 0;
  /// Kleene conjunction of the remaining (pair) conjuncts.
  virtual Truth PairTruth(size_t r_row, size_t s_row) const = 0;
};

/// Counters of one staged sweep, all thread-count-invariant.
struct StagedScanStats {
  size_t candidate_pairs = 0;      // pairs a residual decided (PairTruth
                                   // or a describable entry)
  size_t rule_evals = 0;           // row-part + pair-part evaluations
  size_t feature_cache_hits = 0;   // pair evals reusing a hoisted row part
  bool indexed = false;            // some live entry probes a join index
};

/// Fired pairs as two aligned columns: the pairs in strictly increasing
/// row-major order, and per pair the lowest (rule, orientation) priority
/// that certified it: priority = rule_index * 2 + (flipped ? 1 : 0).
struct FiredColumns {
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> priorities;
};

/// One describable entry of a sweep (DESIGN.md §4d): on an r row its row
/// part holds on, the s rows it fires do not depend on evaluating each
/// pair. Describes its set by data RowRules owns, never by a pointer into
/// the session's ColumnarWorld, which dies with Identify.
struct RowRule {
  enum class Kind : uint8_t {
    kAll,             // empty pair part over all of S: every s row
    kList,            // empty pair part over a fixed S list
    kDrain,           // `s.B != b` over all of S: the non-NULL B rows
                      // outside b's posting rows
    kColumnNotEqual,  // `s.A != r.A` over all of S: the non-NULL S'.A rows
                      // outside the posting rows of the r row's own A id;
                      // nothing when that id is NULL
  };
  Kind kind = Kind::kAll;
  uint32_t priority = 0;
  uint32_t s_column = 0;  // kDrain, kColumnNotEqual: RowRules' S' column
  uint32_t r_column = 0;  // kColumnNotEqual: RowRules' R' id column
  // kList: the list; kDrain: b's posting rows. A range of RowRules' pool.
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Per-worker scratch of the row sweep: two bitsets with one bit per s
/// row (the fired set, and the certified set a re-walk builds), each s
/// row's lowest firing priority, the s rows fired or certified one at a
/// time, and the describable entries that fired on the row. The bitsets
/// are left clear between rows. Each owns a cache line: concurrent
/// workers never share one.
struct alignas(64) RowScratch {
  explicit RowScratch(size_t s_count)
      : bits((s_count + 63) / 64, 0),
        certified((s_count + 63) / 64, 0),
        best(s_count) {}
  std::vector<uint64_t> bits;
  std::vector<uint64_t> certified;
  std::vector<uint32_t> best;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> masked;  // bits a drain masks, then clears
  std::vector<uint32_t> rules;   // RowRules indices, ascending priority
};

/// The describable entries of one sweep, owned: built at registration
/// from the session world, then immutable and shared by the sweep's
/// output, which outlives the world (EID_SHARED_IMMUTABLE).
class EID_SHARED_IMMUTABLE RowRules {
 public:
  explicit RowRules(size_t s_count) : s_count_(s_count) {}

  /// The last bitset word's bits that stand for s rows; the others never
  /// fire.
  uint64_t tail() const {
    return s_count_ % 64 == 0 ? ~uint64_t{0}
                              : (uint64_t{1} << (s_count_ % 64)) - 1;
  }
  const RowRule& rule(uint32_t i) const { return rules_[i]; }

  /// Registration, in priority order. Each returns the new rule's index.
  /// `s_column`/`r_column` are indexes AddSColumn/AddRColumn returned.
  uint32_t AddAll(uint32_t priority);
  uint32_t AddList(uint32_t priority, const std::vector<uint32_t>& s_rows);
  uint32_t AddDrain(uint32_t priority, uint32_t s_column,
                    std::pair<uint32_t, uint32_t> excluded);
  uint32_t AddColumnNotEqual(uint32_t priority, uint32_t s_column,
                             uint32_t r_column);
  /// An S' column a rule reads: its non-NULL bits and, for
  /// kColumnNotEqual, a copy of its posting index.
  uint32_t AddSColumn(const std::vector<uint32_t>& ids,
                      const ColumnIndex* index);
  /// An R' id column a kColumnNotEqual rule reads, copied.
  uint32_t AddRColumn(const std::vector<uint32_t>& ids);
  /// Copies `rows` into the pool and returns their range: a drain's
  /// excluded rows, shared by every drain over the same (column, id).
  std::pair<uint32_t, uint32_t> Pool(PostingRange rows);

  /// Whether rule `i`'s set on r row `r` holds s row `s`.
  bool Holds(uint32_t i, uint32_t r, uint32_t s) const;

  /// What Fire writes besides the bits: nothing (the sweep counts them
  /// word by word), each fresh s row's `best` priority (the replay of a
  /// complement row), or that and the s row appended to `touched` (the
  /// re-walk of a row that stays explicit, which is emitted from it).
  enum class Out : uint8_t { kBits, kBest, kBestAndTouched };

  /// The row sweep over one rule, for all of its callers: sets the bit
  /// of every s row in rule `i`'s set on r row `r` whose bit is clear in
  /// `bits` (one of `scratch`'s bitsets), writes what `kOut` names for
  /// each, and returns how many it set. Defined here so the sweep's call
  /// inlines.
  template <Out kOut>
  size_t Fire(uint32_t i, uint32_t r, uint64_t* bits,
              RowScratch* scratch) const;

 private:
  struct SColumn {
    std::vector<uint64_t> non_null;  // one bit per s row
    std::unique_ptr<const ColumnIndex> index;  // kColumnNotEqual only
  };

  size_t s_count_ = 0;
  std::vector<RowRule> rules_;
  std::vector<uint32_t> pool_;  // kList lists and drains' excluded rows
  std::vector<SColumn> s_columns_;
  std::vector<std::vector<uint32_t>> r_columns_;
};

template <RowRules::Out kOut>
size_t RowRules::Fire(uint32_t i, uint32_t r, uint64_t* bits,
                      RowScratch* sc) const {
  const RowRule& rule = rules_[i];
  size_t fresh_count = 0;
  auto certify = [&](uint32_t s) {
    if constexpr (kOut != Out::kBits) sc->best[s] = rule.priority;
    if constexpr (kOut == Out::kBestAndTouched) sc->touched.push_back(s);
  };
  if (rule.kind == RowRule::Kind::kList) {
    for (uint32_t k = rule.begin; k < rule.end; ++k) {
      const uint32_t s = pool_[k];
      const uint64_t bit = uint64_t{1} << (s % 64);
      if ((bits[s / 64] & bit) != 0) continue;
      bits[s / 64] |= bit;
      ++fresh_count;
      certify(s);
    }
    return fresh_count;
  }
  // Word-level kinds fire `allowed` (every s row, or a column's non-NULL
  // ones) minus `excluded`, which is masked as if fired for the word pass
  // and cleared after it.
  const uint64_t* allowed = nullptr;
  PostingRange excluded;
  if (rule.kind == RowRule::Kind::kDrain) {
    allowed = s_columns_[rule.s_column].non_null.data();
    excluded =
        PostingRange{pool_.data() + rule.begin, pool_.data() + rule.end};
  } else if (rule.kind == RowRule::Kind::kColumnNotEqual) {
    const uint32_t id = r_columns_[rule.r_column][r];
    if (id == ColumnarWorld::kNullId) return 0;  // `!=` on NULL: kUnknown
    const SColumn& column = s_columns_[rule.s_column];
    allowed = column.non_null.data();
    excluded = column.index->Find(id);
  }
  for (uint32_t s : excluded) {
    const uint64_t bit = uint64_t{1} << (s % 64);
    if ((bits[s / 64] & bit) != 0) continue;
    bits[s / 64] |= bit;
    sc->masked.push_back(s);
  }
  const size_t words = (s_count_ + 63) / 64;
  const uint64_t last = tail();
  for (size_t w = 0; w < words; ++w) {
    const uint64_t word = allowed != nullptr ? allowed[w]
                          : w + 1 == words   ? last
                                             : ~uint64_t{0};
    uint64_t fresh = word & ~bits[w];
    if (fresh == 0) continue;
    bits[w] |= fresh;
    fresh_count += static_cast<size_t>(std::popcount(fresh));
    if constexpr (kOut != Out::kBits) {
      for (; fresh != 0; fresh &= fresh - 1) {
        certify(static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(std::countr_zero(fresh))));
      }
    }
  }
  for (uint32_t s : sc->masked) bits[s / 64] &= ~(uint64_t{1} << (s % 64));
  sc->masked.clear();
  return fresh_count;
}

/// The rows of a sweep's output stored by complement (DESIGN.md §4d):
/// row rows[k] holds every s < s_count except its missing list,
/// missing[end[k - 1] .. end[k]) (from 0 for k = 0), ascending.
struct ComplementRows {
  size_t s_count = 0;
  std::vector<uint32_t> rows;     // ascending
  std::vector<uint32_t> end;      // one per row
  std::vector<uint32_t> missing;  // ascending within each row

  bool empty() const { return rows.empty(); }
  /// Pairs the rows hold.
  size_t pairs() const { return rows.size() * s_count - missing.size(); }
  /// The s rows row k does not hold.
  std::span<const uint32_t> Missing(size_t k) const {
    const uint32_t begin = k == 0 ? 0 : end[k - 1];
    return {missing.data() + begin, missing.data() + end[k]};
  }
  /// The position k of row `r` in `rows`, if it is stored by complement.
  std::optional<size_t> Find(size_t r) const;
};

/// Per complement row of a sweep's output, aligned with its
/// ComplementRows: the describable entries that fired on the row, in
/// priority order, and the pairs other entries fired on it one at a time
/// (exceptions), by s, with their priorities. Ends are cumulative, as in
/// ComplementRows.
struct ComplementCertificates {
  std::shared_ptr<const RowRules> rules;
  std::vector<uint32_t> fired_end;
  std::vector<uint32_t> fired;  // RowRules indices
  std::vector<uint32_t> exceptions_end;
  std::vector<uint32_t> exception_s;
  std::vector<uint32_t> exception_priority;
};

/// Output of one sweep, row by row: the explicit rows as `pairs` and
/// `priorities` (FiredColumns' layout), the complement rows and their
/// certificates. This module writes the row format and is the one that
/// reads it: eid::NegativeTable holds one by move and asks it. Rows with
/// no certificate (a pair list's, all explicit) leave `priorities` empty.
struct FiredRows {
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> priorities;
  ComplementRows complement;
  ComplementCertificates certificates;

  /// Pairs the rows hold.
  size_t size() const { return pairs.size() + complement.pairs(); }
  bool Contains(const TuplePair& pair) const;

  /// Whether every row list is in order and range: the explicit pairs
  /// strictly increasing row-major with every s below complement.s_count,
  /// each complement row after its predecessor and on no explicit pair's
  /// row, the ends in order and covering `missing`, and each missing
  /// list strictly increasing and below s_count. Aborts when a
  /// certificate column is not aligned with its rows.
  bool InOrder() const;

  /// The certificate of `pair`: on an explicit row its priority, on a
  /// complement row the minimum priority over the row's exception at s
  /// and its rules whose set holds s. Nullopt when the rows do not hold
  /// the pair or carry no certificate.
  std::optional<uint32_t> CertificateOf(const TuplePair& pair) const;

  /// One row-major walk over the explicit and complement rows: appends
  /// every pair the rows hold to `out_pairs` and, with `out_priorities`,
  /// its certificate (either may be null). Without certificates a
  /// complement row's pairs come from its missing list; with them the
  /// row is replayed through RowRules::Fire and emitted as a dense
  /// explicit row is.
  void AppendRowMajor(std::vector<TuplePair>* out_pairs,
                      std::vector<uint32_t>* out_priorities) const;

  /// Every row as explicit pairs with their priorities, row-major.
  FiredColumns Materialize() &&;
};

/// One sweep over an (R, S) pair space for a set of rule orientations.
/// Add every (rule, orientation) via AddRule in evaluation-priority
/// order, then Run once. Not reusable.
class CandidateGenerator {
 public:
  /// The relations and `world` must outlive the generator. `world` is
  /// the session's columnar world with `r_ext`/`s_ext` under the
  /// kRExtended/kSExtended slots (or with those slots not yet encoded):
  /// join probes and const-eq filters read its id columns and posting
  /// indexes. It is mutated (lazy encodes and index builds) only during
  /// serial AddRule registration.
  CandidateGenerator(const Relation* r_ext, const Relation* s_ext,
                     ColumnarWorld& world);

  /// Registers the next (rule, orientation). `plan` must be the
  /// PlanBlocking result for the same predicates/orientation, its probe
  /// chosen by ChooseProbe when it has joins, and `residual` (maybe null
  /// only for impossible plans) must outlive Run. Resolves the plan's
  /// attribute names and constants (ResolveFilter) and registers the
  /// result as the ColumnPlan overload does.
  void AddRule(const BlockingPlan& plan, const StagedEvaluator* residual);

  /// Registers the next (rule, orientation) from its resolved plan: the
  /// one registration body. `residual` (maybe null only for impossible
  /// plans) must evaluate exactly the conjuncts the plan does not
  /// enforce and outlive Run. Every call consumes one priority slot —
  /// dead rules included — so callers can always recover (rule,
  /// orientation) from a priority.
  void AddRule(const ColumnPlan& plan, const StagedEvaluator* residual);

  /// Sweeps all registered rules. Returns every row's fired set in its
  /// encoding (FiredRows), identical for any pool size. When one chunk
  /// produced every row (always so inline, threads=1) its buffers are
  /// returned by move, not copied.
  FiredRows Run(ThreadPool* pool, StagedScanStats* stats);

 private:
  static constexpr uint32_t kNotDescribable = UINT32_MAX;

  struct Entry {
    uint32_t priority = 0;
    const StagedEvaluator* residual = nullptr;
    // A describable entry: its RowRules index. The sweep fires it through
    // RowRules::Fire and a complement row records it.
    uint32_t rule = kNotDescribable;
    // Join probe, when the plan has a cross-entity equality: the r row's
    // id in the r-side join column selects its posting range in the
    // s-side join column's index.
    bool has_join = false;
    const uint32_t* r_ids = nullptr;      // r-side join column ids
    const ColumnIndex* s_join = nullptr;  // posting index over the s column
    // Scan fallback: the s rows this entry pairs against — every s row
    // (s_all) or the const-filtered list below.
    bool s_all = false;
    std::vector<uint32_t> s_rows_storage;
    // An empty pair part on a join probe: every candidate fires.
    bool fires_all = false;
  };

  /// Ids of column `column` of the given side, encoded once per sweep:
  /// the world encodes it on first request and every later request of
  /// this generator reads the cached pointer.
  const uint32_t* Encoded(bool r_side, size_t column);

  /// The RowRules index of S' column `column` (kColumnNotEqual: with its
  /// posting index), registered on first use. The column must already be
  /// encoded.
  uint32_t SColumnOf(size_t column, bool with_index);

  // Everything below is written only during serial AddRule registration
  // and then EID_SHARED_IMMUTABLE for the parallel sweep in Run: workers
  // read entries_/per_row_/global_ and the world's indexes const-only and
  // write exclusively to their own chunk's output buffer
  // (EID_PER_WORKER).
  const Relation* r_;
  const Relation* s_;
  ColumnarWorld* world_;
  std::vector<const uint32_t*> r_encoded_;  // column -> ids, null = not yet
  std::vector<const uint32_t*> s_encoded_;

  uint32_t next_priority_ = 0;
  EID_SHARED_IMMUTABLE std::vector<Entry> entries_;
  // Entries whose r rows are pruned by const filters, inverted to
  // per-row lists (ascending priority); entries consulted for every row
  // stay in `global_` (ascending priority).
  EID_SHARED_IMMUTABLE std::vector<std::vector<uint32_t>> per_row_;
  EID_SHARED_IMMUTABLE std::vector<uint32_t> global_;
  std::vector<uint32_t> all_s_rows_;  // shared iota scan list
  // The describable entries' descriptors; the RowRules column registered
  // for each S' column (at column * 2 + with_index) and R' column
  // (kNotDescribable: none yet); per (S' column, id) the pool range of a
  // drain's excluded rows.
  std::shared_ptr<RowRules> rules_;
  std::vector<uint32_t> s_column_rule_;
  std::vector<uint32_t> r_column_rule_;
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> excluded_pool_;
  bool ran_ = false;
};

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_CANDIDATE_GENERATOR_H_
