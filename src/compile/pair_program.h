// Compiled pairwise rule antecedents.
//
// Identity and distinctness rules are conjunctions of predicates over an
// entity pair (rules/predicate.h). The interpreter resolves each operand's
// attribute name through Schema::IndexOf on every evaluation; a
// CompiledConjunction binds every operand once per (rule, orientation) to
// one of {r-side column, s-side column, constant, absent}, so evaluating a
// candidate pair is a flat pass over the two rows with no map lookups.
//
// Binding is total: an attribute absent from its bound schema becomes an
// operand that resolves to NULL — exactly TupleView::GetOrNull — so
// compilation cannot fail anywhere eid-lint passes (it only warns/errors;
// it never changes evaluation semantics). The compiled truth value equals
// the interpreter's for every pair (tests/compile/ enforces this).
//
// CompiledConjunction evaluates whole rows (the incremental engine's
// per-insert sweep); StagedConjunction evaluates the residual of a
// blocking plan over the session's columnar world (the batch engine's
// staged sweep).

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

/// One rule antecedent compiled for one orientation. Self-contained (owns
/// its opcode list and constants). EID_SHARED_IMMUTABLE: compiled once,
/// then Evaluate (const) may run from any thread.
class EID_SHARED_IMMUTABLE CompiledConjunction {
 public:
  /// Binds `predicates` against the two extended schemas. Entity 1 reads
  /// the r-side row and entity 2 the s-side row, unless `flipped` — the
  /// same orientation convention as exec::PlanBlocking.
  static CompiledConjunction Compile(const std::vector<Predicate>& predicates,
                                     const Schema& r_schema,
                                     const Schema& s_schema, bool flipped);

  /// Kleene conjunction over the pair, rows in relation space (the
  /// r-side row first); bit-identical to EvaluateConjunction(predicates,
  /// e1, e2) with the bound orientation.
  Truth Evaluate(const Row& r_row, const Row& s_row) const;

  size_t size() const { return ops_.size(); }

 private:
  enum class Src : uint8_t {
    kRColumn,   // read r_row[column]
    kSColumn,   // read s_row[column]
    kConstant,  // read the stored constant
    kAbsent,    // attribute not in its schema: always NULL
  };
  struct Slot {
    Src src = Src::kAbsent;
    size_t column = 0;
    Value constant;
  };
  struct Op {
    Slot lhs;
    CompareOp op = CompareOp::kEq;
    Slot rhs;
  };

  std::vector<Op> ops_;
};

/// One rule antecedent compiled for the staged candidate generator: the
/// covered conjuncts are dropped (the enumeration enforces them), the
/// rest split into a row part (every operand binds the r side — hoisted
/// out of the pair loop by the generator) and a pair part. For each R'
/// column an id pair conjunct reads that holds a NULL cell
/// (ColumnarWorld::HasNull), the row part also gets `e.A = e.A`, kTrue
/// exactly when the cell is non-NULL: the pair conjunct is kUnknown on a
/// NULL cell, so the row is dropped before its pairs are evaluated and
/// the set of kTrue pairs does not change. kEq/kNe
/// conjuncts run on the session world's id columns (exact: id equality
/// is storage equality, which is precisely CompareValues-kEq/kNe on
/// non-NULL operands; either side NULL yields kUnknown); ordering
/// conjuncts fall back to CompareValues on the raw rows, which compares
/// numerics cross-type.
/// EID_SHARED_IMMUTABLE: compiled serially (AddRule time), evaluated
/// const from every worker of the staged sweep.
class EID_SHARED_IMMUTABLE StagedConjunction final
    : public exec::StagedEvaluator {
 public:
  /// `world` holds `r_ext`/`s_ext` under the kRExtended/kSExtended slots
  /// (or does not hold those slots yet); the id columns the conjuncts
  /// read are encoded there on first request and must outlive the
  /// conjunction, as must the relations.
  static StagedConjunction Compile(
      const std::vector<Predicate>& predicates,
      const std::vector<exec::PredicateCoverage>& coverage,
      const Relation& r_ext, const Relation& s_ext, bool flipped,
      exec::ColumnarWorld& world);

  /// The residual of one Proposition 1 orientation, built from ids
  /// instead of predicates: the lone id conjunct `column != constant` on
  /// `side` (kRExtended or kSExtended) — a row part on the r side, the
  /// kSNotEqual pair part on the s side. `const_id` is the constant's
  /// session id, never kNullId; the column is encoded in `world` on
  /// first request.
  static StagedConjunction NotEqual(exec::WorldRel side, size_t column,
                                    uint32_t const_id, const Relation& r_ext,
                                    const Relation& s_ext,
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
  enum class Src : uint8_t { kRColumn, kSColumn, kConstant, kAbsent };
  struct Slot {
    Src src = Src::kAbsent;
    size_t column = 0;
    Value constant;
    // Interned fast path: the column's id slice (kRColumn/kSColumn) or
    // the constant's id; unused for value-fallback ops.
    const std::vector<uint32_t>* ids = nullptr;
    uint32_t const_id = exec::ColumnarWorld::kNullId;
  };
  struct Op {
    Slot lhs;
    CompareOp op = CompareOp::kEq;
    Slot rhs;
    bool id_fast = false;  // kEq/kNe over interned ids
  };

  Truth EvaluateOps(const std::vector<Op>& ops, size_t r_row,
                    size_t s_row) const;

  std::vector<Op> row_ops_;
  std::vector<Op> pair_ops_;
  const Relation* r_ = nullptr;
  const Relation* s_ = nullptr;
};

/// Sweeps identity rules over r_ext × s_ext in one staged pass, in the
/// direct orientation only (e1 := r row, e2 := s row). A rule Validate
/// accepts implies e1.A = e2.A, non-NULL, on every attribute it reads
/// (paper §3.2): on a pair where it fires, both orientations read the
/// same values, so the flipped orientation fires on exactly the same
/// pairs.
/// Extended-key equivalence is such a rule (ExtendedKey::EquivalenceRule).
/// Per rule: exec::PlanBlocking, exec::ChooseProbe, a StagedConjunction
/// residual; then one exec::CandidateGenerator over `world` (which holds
/// the relations under the kRExtended / kSExtended slots, or does not
/// hold those slots yet). Returns the fired pairs row-major with the
/// index of the first rule that fires each, identical for any pool size.
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
