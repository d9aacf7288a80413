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
#include "relational/schema.h"
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
/// out of the pair loop by the generator) and a pair part. kEq/kNe
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

/// Sweeps every (rule, orientation) of `antecedents` — in priority
/// order, each rule tried direct before flipped — over r_ext × s_ext in
/// one staged pass: exec::PlanBlocking per orientation, a
/// StagedConjunction residual per live one, one exec::CandidateGenerator
/// over `world` (which holds the relations under the kRExtended /
/// kSExtended slots, or does not hold those slots yet). Returns the fired
/// pairs row-major with their lowest priority, rule_index * 2 + flipped,
/// identical for any pool size. Sets stats' candidate_pairs, rule_evals,
/// feature_cache_hits, compile_ms, columnar_encode_ms and
/// interner_reuse_hits.
exec::FiredColumns SweepRules(
    const std::vector<const std::vector<Predicate>*>& antecedents,
    const Relation& r_ext, const Relation& s_ext, exec::ColumnarWorld& world,
    exec::ThreadPool* pool, exec::StageStats* stats);

/// Counters of one InternedKeyJoin call.
struct KeyJoinStats {
  size_t probe_batches = 0;    // 256-row R' probe blocks executed
  size_t reuse_hits = 0;       // ids served from the world, not encoded
  double encode_ms = 0.0;      // world-path column encode time
};

/// Joins two extended relations on parallel key-column lists through
/// session value ids. The key columns are the session's shared id slices
/// under the kRExtended/kSExtended slots (encoded at most once across
/// extension / join / rule stages) and the probe reads the world's
/// posting index. S' is indexed on the key column with the most distinct
/// non-NULL ids; each R' row with no NULL key cell takes that column's
/// posting range for its id and verifies the other key columns by id.
/// Returns pairs in the serial probe's order — r-major, s ascending —
/// for any pool size. Pair semantics are identical to the reference's
/// fingerprint join: rows agree non-NULL on every key column.
std::vector<TuplePair> InternedKeyJoin(const Relation& r_ext,
                                       const Relation& s_ext,
                                       const std::vector<size_t>& r_idx,
                                       const std::vector<size_t>& s_idx,
                                       exec::ThreadPool* pool,
                                       exec::ColumnarWorld& world,
                                       KeyJoinStats* stats);

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_PAIR_PROGRAM_H_
