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
//      Two pair-part shapes skip that call and fire a whole set of s
//      rows at once (PairShape): an empty pair part fires every
//      candidate, and a lone `s.col != constant` over all of S fires the
//      column's non-NULL rows outside the constant's posting range.
//      They are the two orientations of a Proposition 1 rule
//      (e1.A = a ∧ e2.B ≠ b).
//
// Exactness: a conjunction is kTrue iff every conjunct is kTrue, covered
// conjuncts are kTrue on every enumerated candidate by construction, and
// the enumeration is complete for kTrue (storage equality is exactly
// CompareValues-kEq on non-NULL operands). Stages may over-approximate
// the candidate set, never under-approximate it.
//
// Determinism and ordering: rows are swept r-major in position-addressed
// chunks with per-chunk output buffers; per row, entries are consulted in
// ascending (rule, orientation) priority and each fired pair records the
// *lowest* priority that fired it. The merged output is therefore the
// row-major sorted pair list with first-(rule,orientation)-wins evidence —
// bit-identical to eid::reference's nested-loop fold — for any thread
// count. The drains above change how a pair is found, never which pairs,
// priorities or counters come out.

#ifndef EID_EXEC_CANDIDATE_GENERATOR_H_
#define EID_EXEC_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "eid/match_tables.h"
#include "exec/blocking_index.h"
#include "exec/columnar_world.h"
#include "exec/thread_pool.h"

namespace eid {
namespace exec {

/// What PairTruth computes, when it is one of the two shapes the sweep
/// can decide for a whole set of s rows without calling it.
struct PairShape {
  enum class Kind : uint8_t {
    kGeneral,     // anything else: PairTruth per candidate
    kEmpty,       // no pair conjunct: kTrue on every candidate
    kSNotEqual,   // one id conjunct `s.s_column != constant`: kTrue iff
                  // the s cell is non-NULL and not the constant's id
  };
  Kind kind = Kind::kGeneral;
  size_t s_column = 0;  // kSNotEqual only
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
                                   // or a whole-set drain)
  size_t rule_evals = 0;           // row-part + pair-part evaluations
  size_t feature_cache_hits = 0;   // pair evals reusing a hoisted row part
  bool indexed = false;            // some live entry probes a join index
};

/// Output of one sweep as two aligned columns: the fired pairs in
/// strictly increasing row-major order, and per pair the lowest
/// (rule, orientation) priority that certified it:
/// priority = rule_index * 2 + (flipped ? 1 : 0). Callers move the
/// columns into their result tables; nothing re-packs them.
struct FiredColumns {
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> priorities;
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

  /// Sweeps all registered rules. Returns the fired pairs row-major
  /// sorted with their min-priority column; identical for any pool size.
  /// When one chunk produced every pair (always so inline, threads=1)
  /// its buffers are returned by move, not copied.
  FiredColumns Run(ThreadPool* pool, StagedScanStats* stats);

 private:
  struct Entry {
    uint32_t priority = 0;
    const StagedEvaluator* residual = nullptr;
    // Join probe, when the plan has a cross-entity equality: the r row's
    // id in the r-side join column selects its posting range in the
    // s-side join column's index.
    bool has_join = false;
    const uint32_t* r_ids = nullptr;      // r-side join column ids
    const ColumnIndex* s_join = nullptr;  // posting index over the s column
    // Scan fallback: the s rows this entry pairs against — every s row
    // (s_all) or the const-filtered list below. Resolved to a pointer in
    // Run, after entries_ stops reallocating.
    bool s_all = false;
    std::vector<uint32_t> s_rows_storage;
    // Whole-set drains instead of PairTruth per candidate: an empty pair
    // part fires every candidate; an `s.col != constant` pair part over
    // all of S fires `s_non_null` (one bit per s row) minus the rows of
    // `s_excluded`, the constant's posting range.
    bool fires_all = false;
    const uint64_t* s_non_null = nullptr;
    PostingRange s_excluded;

    /// Fires a whole row's s set word by word instead of per candidate.
    bool drains_row() const {
      return s_all && (fires_all || s_non_null != nullptr);
    }
  };

  /// Ids of column `column` of the given side, encoded once per sweep:
  /// the world encodes it on first request and every later request of
  /// this generator reads the cached pointer.
  const uint32_t* Encoded(bool r_side, size_t column);

  /// One bit per s row of column `column`, set iff the cell is non-NULL;
  /// built once per sweep, on the first `!=` drain that reads it. The
  /// column must already be encoded.
  const uint64_t* NonNullBits(size_t column);

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
  // s column -> bit s set iff that cell is non-NULL; built on first use
  // by a `!=` drain, empty otherwise.
  EID_SHARED_IMMUTABLE std::vector<std::vector<uint64_t>> s_non_null_;
  bool ran_ = false;
};

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_CANDIDATE_GENERATOR_H_
