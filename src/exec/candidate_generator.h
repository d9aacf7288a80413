// Staged candidate generation for pairwise rule sweeps.
//
// The exhaustive engine evaluates every rule's full antecedent over a
// (filtered) cross product per orientation — O(|R|·|S|) conjunction
// evaluations even when blocking bounds one rule, because each rule scans
// independently. CandidateGenerator replaces that with one r-major sweep
// through two stages:
//
//   1. *Blocking intersection.* Each (rule, orientation) contributes a
//      BlockingPlan (exec/blocking_index.h); its const-eq filters prune
//      the r rows an entry is consulted for (the per-row entry lists
//      below are that intersection), and its join conjunct turns the
//      inner loop into one posting-range read: the r row's id in the
//      shared id column selects the s rows from the column's CSR index
//      (exec::ColumnIndex, owned by the session's ColumnarWorld). No
//      Value is hashed inside the sweep. A const-eq conjunct whose
//      constant its column does not hold — never interned, or an empty
//      posting range — kills the whole orientation at registration.
//      Rules with no indexable conjunct fall back to a scan list —
//      principled, not silent: the analyzer flags them (EID-W009).
//   2. *Residual evaluation with feature hoisting.* The conjuncts the
//      enumeration already enforces (PredicateCoverage::kCovered) are
//      skipped; conjuncts reading only the r-side row are evaluated once
//      per row and reused across every candidate pair of that row
//      (counted as feature_cache_hits); only the true pair residual runs
//      in the inner loop, through a StagedEvaluator the caller supplies
//      (compiled or interpreted — candidate enumeration and all counters
//      are identical either way).
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
// bit-identical to the exhaustive oracle's fold — for any thread count.

#ifndef EID_EXEC_CANDIDATE_GENERATOR_H_
#define EID_EXEC_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "exec/blocking_index.h"
#include "exec/columnar_world.h"
#include "exec/thread_pool.h"

namespace eid {
namespace exec {

/// Lanes per residual pair block. Surviving candidates accumulate into
/// fixed-size (r_row, s_row) blocks and the residual conjunction is
/// evaluated op-major over the whole block (PairTruthBlock below). 256
/// lanes keep the per-block scratch (two id lanes + two mask bytes per
/// lane) inside L1 while amortizing the per-op slot resolution.
inline constexpr size_t kPairBlockLanes = 256;

/// Below this many lanes the fixed per-block setup (slot lowering, mask
/// init, lane compaction bookkeeping) outweighs the op-major win — dense
/// sweeps drain mostly-partial blocks of a few dozen lanes. Both the
/// evaluator's PairTruthBlock and the generator's probe loop route
/// batches under this size through the scalar PairTruth path, which is
/// bit-identical lane-by-lane.
inline constexpr size_t kMinVectorLanes = 64;

/// Counters of one PairTruthBlock call, folded into StagedScanStats by
/// the generator. Evaluators without a vectorized path leave them zero.
struct PairBlockStats {
  size_t early_exits = 0;       // op loops cut short: no lane still true
  size_t scalar_fallbacks = 0;  // lanes routed through the value path
};

/// Evaluates the residual (non-covered) conjuncts of one rule antecedent
/// for one orientation. Implementations must be EID_SHARED_IMMUTABLE:
/// constructed serially, then safe for concurrent read-only use (the
/// sweep calls RowTruth/PairTruth from every worker).
class EID_SHARED_IMMUTABLE StagedEvaluator {
 public:
  virtual ~StagedEvaluator() = default;

  /// True when some conjunct is evaluable from the r-side row alone.
  virtual bool has_row_part() const = 0;
  /// Kleene conjunction of the row-only conjuncts for r row `r_row`.
  /// Only called when has_row_part().
  virtual Truth RowTruth(size_t r_row) const = 0;
  /// Vectorized form of RowTruth over every r row in [0, n):
  /// out[r] == RowTruth(r). The default is the per-row loop; compiled
  /// evaluators override it with an op-major pass over their cached id
  /// slices. Only called when has_row_part().
  virtual std::vector<Truth> RowTruthAll(size_t n) const {
    std::vector<Truth> out(n, Truth::kTrue);
    for (size_t r = 0; r < n; ++r) out[r] = RowTruth(r);
    return out;
  }
  /// Kleene conjunction of the remaining (pair) conjuncts.
  virtual Truth PairTruth(size_t r_row, size_t s_row) const = 0;
  /// Vectorized form of PairTruth over `lanes` candidate pairs:
  /// out[i] == PairTruth(r_rows[i], s_rows[i]) for every lane, with
  /// `lanes` <= kPairBlockLanes. The default is the per-lane scalar
  /// loop; compiled evaluators override it with an op-major pass over
  /// contiguous id columns (branch-free Kleene masks, early exit when
  /// no lane can still be kTrue). Overrides must be bit-identical to
  /// the scalar loop — conjunction truth is order-independent, so
  /// reordering ops inside the block is safe, dropping lanes is not.
  virtual void PairTruthBlock(const size_t* r_rows, const size_t* s_rows,
                              size_t lanes, Truth* out,
                              PairBlockStats* stats) const {
    (void)stats;
    for (size_t i = 0; i < lanes; ++i) out[i] = PairTruth(r_rows[i], s_rows[i]);
  }
};

/// Interpreter-backed StagedEvaluator: splits the predicate list by the
/// plan's coverage and evaluates each part with EvaluateConjunction.
/// The row part binds both entity views to the r row — safe because
/// every entity operand of a kResidualRow conjunct binds the r side.
class InterpretedResidual final : public StagedEvaluator {
 public:
  InterpretedResidual(const std::vector<Predicate>& predicates,
                      const std::vector<PredicateCoverage>& coverage,
                      const Relation* r_ext, const Relation* s_ext,
                      bool flipped);

  bool has_row_part() const override { return !row_.empty(); }
  Truth RowTruth(size_t r_row) const override;
  Truth PairTruth(size_t r_row, size_t s_row) const override;

 private:
  std::vector<Predicate> row_;
  std::vector<Predicate> pair_;
  const Relation* r_;
  const Relation* s_;
  bool flipped_;
};

/// Counters of one staged sweep. All thread-count-invariant; the
/// block_* pair is evaluator-dependent (zero on the interpreted path,
/// which has no vectorized override), the rest engine-invariant too.
struct StagedScanStats {
  size_t candidate_pairs = 0;      // pairs a residual was evaluated on
  size_t rule_evals = 0;           // row-part + pair-part evaluations
  size_t feature_cache_hits = 0;   // pair evals reusing a hoisted row part
  size_t pair_blocks = 0;          // PairTruthBlock drains (block path)
  size_t block_early_exits = 0;    // blocks whose op loop exited early
  size_t block_scalar_fallbacks = 0;  // lanes through the value path
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
  /// serial AddRule registration. `block_eval` drains residual
  /// candidates in kPairBlockLanes-sized PairTruthBlock batches; off
  /// calls the scalar PairTruth per pair (the differential oracle for
  /// the block path — fired pairs, evidence and the engine-invariant
  /// counters are identical either way).
  CandidateGenerator(const Relation* r_ext, const Relation* s_ext,
                     ColumnarWorld* world, bool block_eval = true);

  /// Registers the next (rule, orientation). `plan` must be the
  /// PlanBlocking result for the same predicates/orientation and
  /// `residual` (maybe null only for impossible plans) must outlive
  /// Run. Every call consumes one priority slot — dead rules included —
  /// so callers can always recover (rule, orientation) from a priority.
  void AddRule(const BlockingPlan& plan, const StagedEvaluator* residual);

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
    std::vector<size_t> s_rows_storage;
  };

  /// Ids of column `column` of the given side, encoded once per sweep:
  /// the world encodes it on first request and every later request of
  /// this generator reads the cached pointer.
  const uint32_t* Encoded(bool r_side, size_t column);

  // Everything below is written only during serial AddRule registration
  // and then EID_SHARED_IMMUTABLE for the parallel sweep in Run: workers
  // read entries_/per_row_/global_ and the world's indexes const-only and
  // write exclusively to their own chunk's output buffer
  // (EID_PER_WORKER).
  const Relation* r_;
  const Relation* s_;
  ColumnarWorld* world_;
  bool block_eval_;
  std::vector<const uint32_t*> r_encoded_;  // column -> ids, null = not yet
  std::vector<const uint32_t*> s_encoded_;

  uint32_t next_priority_ = 0;
  EID_SHARED_IMMUTABLE std::vector<Entry> entries_;
  // Entries whose r rows are pruned by const filters, inverted to
  // per-row lists (ascending priority); entries consulted for every row
  // stay in `global_` (ascending priority).
  EID_SHARED_IMMUTABLE std::vector<std::vector<uint32_t>> per_row_;
  EID_SHARED_IMMUTABLE std::vector<uint32_t> global_;
  std::vector<size_t> all_s_rows_;  // shared iota scan list
  bool ran_ = false;
};

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_CANDIDATE_GENERATOR_H_
