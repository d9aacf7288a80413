// Compiled pairwise rule antecedents.
//
// Identity and distinctness rules are conjunctions of predicates over an
// entity pair (rules/predicate.h). The interpreter resolves each operand's
// attribute name through Schema::IndexOf on every evaluation; a
// StagedConjunction binds every operand once per (rule, orientation) to
// one of {r-side id column, s-side id column, constant} of a session's
// columnar world, so evaluating a candidate pair is a flat pass over the
// two rows' ids with no map lookups.
//
// Binding is total: an attribute absent from its bound schema becomes an
// operand that resolves to NULL — exactly TupleView::GetOrNull — so
// compilation cannot fail anywhere eid-lint passes (it only warns/errors;
// it never changes evaluation semantics). The compiled truth value equals
// the interpreter's for every pair (the differential suites check it
// against eid::reference).
//
// The batch engine's staged sweep (SweepRules below) and the incremental
// session (eid/incremental.h) evaluate the same residuals, each over its
// own world.

#ifndef EID_COMPILE_PAIR_PROGRAM_H_
#define EID_COMPILE_PAIR_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "base/thread_annotations.h"
#include "eid/match_tables.h"
#include "exec/candidate_generator.h"
#include "exec/stage_stats.h"
#include "exec/thread_pool.h"
#include "ilfd/ilfd_set.h"
#include "relational/schema.h"
#include "rules/distinctness_rule.h"
#include "rules/identity_rule.h"
#include "rules/predicate.h"

namespace eid {
namespace compile {

/// One rule antecedent compiled for the staged candidate generator: the
/// covered conjuncts are dropped (the enumeration enforces them), the
/// rest split into a row part (every operand binds the r side — hoisted
/// out of the pair loop by the generator) and a pair part. For each R'
/// column an id pair conjunct reads that holds a NULL cell
/// (ColumnarWorld::HasNull), the row part also gets `e.A = e.A`, kTrue
/// exactly when the cell is non-NULL: the pair conjunct is kUnknown on a
/// NULL cell, so the row is dropped before its pairs are evaluated and
/// the set of kTrue pairs does not change. Every operand reads the
/// world's id columns: kEq/kNe conjuncts compare ids (exact: id equality
/// is storage equality, which is precisely CompareValues-kEq/kNe on
/// non-NULL operands; either side NULL yields kUnknown); ordering
/// conjuncts compare the values behind the ids (the world's dictionary,
/// NULL for kNullId) with CompareValues, which compares numerics
/// cross-type. A residual reads nothing but the world.
/// EID_SHARED_IMMUTABLE: compiled serially (registration time),
/// evaluated const from every worker of the staged sweep.
class EID_SHARED_IMMUTABLE StagedConjunction final
    : public exec::StagedEvaluator {
 public:
  /// `world` holds `r_ext`/`s_ext` under the kRExtended/kSExtended slots
  /// (or does not hold those slots yet); every column a conjunct reads is
  /// encoded there on first request. The world must outlive the
  /// conjunction; the relations need not.
  static StagedConjunction Compile(
      const std::vector<Predicate>& predicates,
      const std::vector<exec::PredicateCoverage>& coverage,
      const Relation& r_ext, const Relation& s_ext, bool flipped,
      exec::ColumnarWorld& world);

  /// The residual of one Proposition 1 orientation, built from ids
  /// instead of predicates: the lone id conjunct `column != constant` on
  /// `rel`, bound to `side` (kRExtended or kSExtended) — a row part on
  /// the r side, the kSNotEqual pair part on the s side. `const_id` is
  /// the constant's session id, never kNullId; the column is encoded in
  /// `world` on first request.
  static StagedConjunction NotEqual(exec::WorldRel side, const Relation& rel,
                                    size_t column, uint32_t const_id,
                                    exec::ColumnarWorld& world);

  /// kEmpty without pair ops; kSNotEqual for one id op `s.col != c` (or
  /// `c != s.col`) with a non-NULL constant; kColumnNotEqual for one id
  /// op `s.col != r.col` (either operand order); kGeneral otherwise.
  exec::PairShape pair_shape() const override;
  bool has_row_part() const override { return !row_ops_.empty(); }
  Truth RowTruth(size_t r_row) const override;
  /// Vectorized row pass: evaluates the flat row opcodes op-major over
  /// the id columns (value-fallback ops per row), skipping rows already
  /// decided kFalse. out[r] == RowTruth(r) for every r.
  std::vector<Truth> RowTruthAll(size_t n) const override;
  Truth PairTruth(size_t r_row, size_t s_row) const override;

 private:
  // A column slot reads its id column; a constant slot holds its id,
  // kNullId for a NULL constant and for an attribute absent from its
  // schema.
  enum class Src : uint8_t { kRColumn, kSColumn, kConstant };
  struct Slot {
    Src src = Src::kConstant;
    size_t column = 0;
    const std::vector<uint32_t>* ids = nullptr;  // kRColumn/kSColumn
    uint32_t const_id = exec::ColumnarWorld::kNullId;
  };
  struct Op {
    Slot lhs;
    CompareOp op = CompareOp::kEq;
    Slot rhs;
    bool id_fast = false;  // kEq/kNe: compares ids, not values
  };

  static uint32_t IdOf(const Slot& slot, size_t r_row, size_t s_row);
  /// The value behind IdOf: the dictionary's, NULL for kNullId.
  const Value& ValueOf(const Slot& slot, size_t r_row, size_t s_row) const;
  Truth EvaluateOps(const std::vector<Op>& ops, size_t r_row,
                    size_t s_row) const;

  std::vector<Op> row_ops_;
  std::vector<Op> pair_ops_;
  const ValueDictionary* dict_ = nullptr;  // the world's
};

/// Sweeps identity rules over r_ext × s_ext in one staged pass, in the
/// direct orientation only (e1 := r row, e2 := s row). A rule Validate
/// accepts implies e1.A = e2.A, non-NULL, on every attribute it reads
/// (paper §3.2): on a pair where it fires, both orientations read the
/// same values, so the flipped orientation fires on exactly the same
/// pairs.
/// Extended-key equivalence is such a rule (ExtendedKey::EquivalenceRule).
/// Per rule: exec::PlanBlocking, exec::ChooseProbe, a StagedConjunction
/// residual, exec::ResolvePlan; then one exec::CandidateGenerator over
/// `world` (which holds the relations under the kRExtended / kSExtended
/// slots, or does not hold those slots yet). Returns the fired pairs
/// row-major with the index of the first rule that fires each, identical
/// for any pool size.
/// Sets stats' candidate_pairs, rule_evals, feature_cache_hits,
/// compile_ms, columnar_encode_ms and interner_reuse_hits.
exec::FiredColumns SweepRules(const std::vector<IdentityRule>& rules,
                              const Relation& r_ext, const Relation& s_ext,
                              exec::ColumnarWorld& world,
                              exec::ThreadPool* pool, exec::StageStats* stats);

/// The same sweep over distinctness rules, in both orientations, each
/// rule tried direct before flipped: a distinctness rule need not read
/// the same attributes of e1 and e2 (Proposition 1's rules do not), so
/// its two orientations fire on different pairs. `rules` come first,
/// then the Proposition 1 rules `induced` of `ilfds`, whose antecedents
/// must be non-empty (DistinctnessRule::Validate rejects the others).
/// The priority is rule_index * 2 + flipped, the NMT certificate, with
/// rule_index counting `rules` and then `induced`. Rows come out in
/// their encodings (exec::FiredRows): a Proposition 1 NMT is mostly
/// complement rows.
///
/// An induced rule e1.A = a ∧ … ∧ e2.B ≠ b is registered straight from
/// the set's atoms, with no DistinctnessRule, Predicate or BlockingPlan:
/// per orientation its attributes resolve to columns (once per attribute
/// ordinal and side), its antecedent constants to filter ids
/// (exec::ResolveFilter) and its consequent constant to a session id
/// (interned when new, so `≠` holds on every non-NULL cell), and the
/// residual is StagedConjunction::NotEqual. The direct orientation (e1 := r row)
/// filters r rows and drains `s.B ≠ b` over S; the flipped one filters
/// s rows and hoists `r.B ≠ b` as a row part. An orientation with an
/// attribute absent from its side or a NULL constant is impossible, and
/// still consumes its priority slot.
exec::FiredRows SweepRules(const std::vector<DistinctnessRule>& rules,
                           const IlfdSet& ilfds,
                           const std::vector<InducedRule>& induced,
                           const Relation& r_ext, const Relation& s_ext,
                           exec::ColumnarWorld& world,
                           exec::ThreadPool* pool, exec::StageStats* stats);

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_PAIR_PROGRAM_H_
