// Predicate-driven blocking for pairwise rule evaluation.
//
// Identity and distinctness rules (paper §3.2) are conjunctions of
// predicates over an entity pair, and the engine needs every (r, s) pair
// whose antecedent evaluates to kTrue. Enumerating the cross product is
// O(|R|·|S|) per rule; almost every practical rule, however, contains an
// equality conjunct that bounds its match set:
//
//   e1.A = e2.B   — a pair can only satisfy the rule when the r-side A
//                   equals the s-side B, both non-NULL (Kleene kTrue
//                   requires non-NULL operands). The s-side column's
//                   posting index (exec::ColumnIndex, owned by the
//                   session's ColumnarWorld) gives the candidates: the r
//                   row's id selects one ascending row range.
//   e_i.A = c     — the i-side row must carry exactly c; the constant's
//                   id selects that side's rows from the same index.
//
// Both reductions are *complete* for kTrue: a conjunction is kTrue only
// if every conjunct is, so no qualifying pair can fall outside the
// candidate set. Candidates are then re-evaluated with the full
// three-valued conjunction, making blocking purely an optimisation —
// rules with no usable equality conjunct fall back to a tiled parallel
// scan over the (filtered) cross product.
//
// Determinism: posting ranges hold row indices in ascending order and the scan
// emits pairs r-major, so CollectTruePairs returns the same row-major
// sequence the serial nested loop would visit, for any thread count.

#ifndef EID_EXEC_BLOCKING_INDEX_H_
#define EID_EXEC_BLOCKING_INDEX_H_

#include <string>
#include <utility>
#include <vector>

#include "eid/match_tables.h"
#include "exec/columnar_world.h"
#include "exec/pair_evaluator.h"
#include "exec/thread_pool.h"
#include "relational/relation.h"
#include "rules/predicate.h"

namespace eid {
namespace exec {

/// How the candidate enumeration of a blocking plan treats one conjunct
/// of the rule antecedent. The split is exact for kTrue detection: a
/// Kleene conjunction is kTrue iff every conjunct is, so a conjunct
/// guaranteed kTrue on every enumerated candidate (kCovered) need not be
/// re-evaluated, and the rest splits into parts evaluable from the r-side
/// row alone (hoistable out of the inner pair loop) versus parts needing
/// both rows.
enum class PredicateCoverage : uint8_t {
  kCovered,       // enforced by the enumeration (join / const filter)
  kResidualRow,   // every entity operand binds the r-side row
  kResidualPair,  // needs both rows
};

/// How one rule antecedent will be evaluated against an (R, S) pair
/// space, for one orientation. `flipped` orientations bind e1 to the
/// s-side tuple and e2 to the r-side (rules quantify over all entity
/// pairs, so the engine tries both instantiation orders).
struct BlockingPlan {
  /// A conjunct forces equality between these columns (r-side attribute
  /// name / s-side attribute name); empty names when no such conjunct.
  bool has_join = false;
  std::string r_attr;
  std::string s_attr;
  /// Conjuncts of the form side.attr = constant.
  std::vector<std::pair<std::string, Value>> r_const_eq;
  std::vector<std::pair<std::string, Value>> s_const_eq;
  /// True when some conjunct can never evaluate kTrue against these
  /// schemas (references an absent attribute, or an unsatisfiable
  /// constant pair) — the rule matches nothing.
  bool impossible = false;
  /// Per-predicate coverage, parallel to the planned predicate list.
  /// Empty when `impossible` (planning stops at the fatal conjunct).
  /// s-side const filters count as covered only when there is no join:
  /// the join probe path enumerates bucket rows without applying them.
  std::vector<PredicateCoverage> coverage;
};

/// Analyses the equality conjuncts of `predicates` for the given
/// orientation against the two (extended) schemas.
BlockingPlan PlanBlocking(const std::vector<Predicate>& predicates,
                          const Schema& r_schema, const Schema& s_schema,
                          bool flipped);

/// Rows of `rel`, bound to `slot` in `world`, passing every (attribute ==
/// constant) filter, ascending; no filters means every row. Each filter
/// encodes its column before looking its constant up in the dictionary
/// (a constant the column holds is interned by that encode at the
/// latest); a constant never interned passes no row. The first filter's
/// posting range seeds the list, the rest compare ids. Complete for
/// kTrue: a row failing a filter (NULL or not storage-equal) cannot
/// satisfy the corresponding equality conjunct.
std::vector<size_t> FilteredRows(
    ColumnarWorld& world, WorldRel slot, const Relation& rel,
    const std::vector<std::pair<std::string, Value>>& filters);

/// Counters from one CollectTruePairs call.
struct PairScanStats {
  size_t candidate_pairs = 0;  // pairs the conjunction was evaluated on
  size_t rule_evals = 0;       // same as candidate_pairs today
  bool indexed = false;        // an equality join bounded the scan
};

/// All pairs (i over `r_ext` rows, j over `s_ext` rows) whose antecedent
/// conjunction evaluates to kTrue with (e1, e2) = (r_i, s_j), or
/// (s_j, r_i) when `flipped`. Returned in row-major (i, then j) order —
/// exactly the visit order of the serial nested loop — for any pool
/// size. `world` blocks the scan: it must hold `r_ext`/`s_ext` under the
/// kRExtended/kSExtended slots (or not yet hold those slots at all);
/// null blocks through a private world.
///
/// When `compiled` is non-null it must be `predicates` compiled for the
/// same schemas/orientation; candidates are then evaluated through it
/// instead of the interpreter (same Truth for every pair — the compiled
/// engine's contract, enforced by tests/compile/).
std::vector<TuplePair> CollectTruePairs(
    const Relation& r_ext, const Relation& s_ext,
    const std::vector<Predicate>& predicates, bool flipped,
    ColumnarWorld* world, ThreadPool* pool, PairScanStats* stats,
    const PairEvaluator* compiled = nullptr);

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_BLOCKING_INDEX_H_
