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
//                   row's id selects one ascending row range. With
//                   several such conjuncts, ChooseProbe takes the s
//                   column with the most distinct values.
//   e_i.A = c     — the i-side row must carry exactly c; the constant's
//                   id selects that side's rows from the same index.
//
// Both reductions are *complete* for kTrue: a conjunction is kTrue only
// if every conjunct is, so no qualifying pair can fall outside the
// candidate set. The candidate generator (exec/candidate_generator.h)
// evaluates the conjuncts a plan does not cover on every candidate,
// making blocking purely an optimisation — rules with no usable equality
// conjunct fall back to a scan over the (filtered) cross product.
//
// Determinism: posting ranges hold row indices in ascending order, so a
// sweep that walks r rows in order visits candidates in the same
// row-major sequence the serial nested loop would.

#ifndef EID_EXEC_BLOCKING_INDEX_H_
#define EID_EXEC_BLOCKING_INDEX_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/columnar_world.h"
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
/// s-side tuple and e2 to the r-side (distinctness rules quantify over
/// all entity pairs, so the engine tries both instantiation orders).
struct BlockingPlan {
  /// A conjunct that forces equality between an r-side and an s-side
  /// column: each one alone bounds a row's candidates to one posting
  /// range of the s column.
  struct Join {
    std::string r_attr;
    std::string s_attr;
    size_t conjunct = 0;  // index into the planned predicate list
  };
  /// Every cross-entity equality, in conjunct order. PlanBlocking marks
  /// them all kResidualPair; ChooseProbe covers the one probed through.
  std::vector<Join> joins;
  /// Index into `joins` of the probed equality, once ChooseProbe ran.
  std::optional<size_t> probe;
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
/// orientation against the two (extended) schemas. Schema-only: the
/// probe among several joins is left to ChooseProbe.
BlockingPlan PlanBlocking(const std::vector<Predicate>& predicates,
                          const Schema& r_schema, const Schema& s_schema,
                          bool flipped);

/// Picks the join a sweep probes through: the one whose s column, bound
/// to kSExtended in `world`, has the most distinct non-NULL ids (the
/// first on ties), so a leading low-cardinality column (32 cities) never
/// turns each probe into a city-sized range. Sets `plan->probe` and
/// marks its conjunct kCovered; the other joins stay pair residuals. A
/// plan without joins, or an impossible one, is left as it is. Builds
/// the posting index of every candidate s column.
void ChooseProbe(BlockingPlan* plan, ColumnarWorld& world,
                 const Relation& s_ext);

/// One `column = constant` filter of a rule orientation, resolved
/// against the session world: the column of its side's relation and the
/// constant's session id (kNullId when the dictionary does not hold it,
/// which no row passes).
struct ColumnFilter {
  size_t column = 0;
  uint32_t id = ColumnarWorld::kNullId;
};

/// A rule orientation resolved to columns and session ids: what
/// CandidateGenerator registers. A BlockingPlan resolves to one through
/// its attribute names (CandidateGenerator::AddRule); a Proposition 1
/// rule is built as one straight from its ILFD's atoms.
struct ColumnPlan {
  /// Some conjunct can never be kTrue: an attribute absent from its
  /// side, a NULL constant. Such an orientation matches nothing.
  bool impossible = false;
  std::vector<ColumnFilter> r_const_eq;
  std::vector<ColumnFilter> s_const_eq;
  /// The probed join as (r column, s column), when the plan has joins.
  std::optional<std::pair<size_t, size_t>> probe;
};

/// Resolves the filter `column = constant` on `rel`, bound to `slot` in
/// `world`. The column is encoded (and indexed) before the constant is
/// looked up: a value the column holds enters the dictionary with that
/// encode at the latest, so a lookup made first could read a value the
/// column holds as absent. `hash` is ValueHash{}(constant).
ColumnFilter ResolveFilter(ColumnarWorld& world, WorldRel slot,
                           const Relation& rel, size_t column,
                           const Value& constant, uint64_t hash);

/// Rows of `rel`, bound to `slot` in `world`, passing every resolved
/// filter (at least one), ascending. The first filter's posting range
/// seeds the list, the rest compare ids. Complete for kTrue: a row
/// failing a filter (NULL or not storage-equal) cannot satisfy the
/// corresponding equality conjunct.
std::vector<uint32_t> FilteredRows(ColumnarWorld& world, WorldRel slot,
                                   const Relation& rel,
                                   const std::vector<ColumnFilter>& filters);

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_BLOCKING_INDEX_H_
