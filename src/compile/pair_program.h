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

#ifndef EID_COMPILE_PAIR_PROGRAM_H_
#define EID_COMPILE_PAIR_PROGRAM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/thread_annotations.h"
#include "compile/interner.h"
#include "eid/match_tables.h"
#include "exec/candidate_generator.h"
#include "exec/pair_evaluator.h"
#include "exec/thread_pool.h"
#include "relational/schema.h"
#include "rules/predicate.h"

namespace eid {
namespace compile {

/// One rule antecedent compiled for one orientation. Self-contained (owns
/// its opcode list and constants). EID_SHARED_IMMUTABLE: compiled
/// serially, then Evaluate (const) runs from every worker of the sweep.
class EID_SHARED_IMMUTABLE CompiledConjunction final
    : public exec::PairEvaluator {
 public:
  /// Binds `predicates` against the two extended schemas. Entity 1 reads
  /// the r-side row and entity 2 the s-side row, unless `flipped` — the
  /// same orientation convention as exec::PlanBlocking and
  /// CollectTruePairs.
  static CompiledConjunction Compile(const std::vector<Predicate>& predicates,
                                     const Schema& r_schema,
                                     const Schema& s_schema, bool flipped);

  /// Kleene conjunction over the pair; bit-identical to
  /// EvaluateConjunction(predicates, e1, e2) with the bound orientation.
  Truth Evaluate(const Row& r_row, const Row& s_row) const override;

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

/// Per-tuple rule-feature projections shared across one engine stage: the
/// columns rule conjuncts touch, re-encoded once as dense interned-id
/// vectors (one shared ValueInterner for both relations, so id equality
/// is storage equality across sides). NULL cells become kNullId and are
/// never interned — non_null_eq semantics stay explicit at the id layer.
///
/// Build is serial and lazy (first rule touching a column pays for it);
/// reads after build are const and safe from every worker. The point: a
/// sweep over millions of candidate pairs re-projects no tuple and hashes
/// no Value — equality is one uint32_t compare against a cached slice.
///
/// EID_SHARED_IMMUTABLE: the non-const members (RColumn/SColumn/
/// InternConstant) run only during serial rule registration, before the
/// parallel sweep starts; during the sweep every worker reads the cached
/// slices through const pointers captured at compile time.
class EID_SHARED_IMMUTABLE PairFeatureCache {
 public:
  static constexpr uint32_t kNullId = ValueInterner::kNotInterned;

  /// Private-encoding form: owns its interner and column slices.
  PairFeatureCache(const Relation* r_ext, const Relation* s_ext)
      : r_(r_ext), s_(s_ext) {}

  /// World-backed form (DESIGN.md §4g): column slices and constant ids
  /// come from the session's columnar world under the given slots, so a
  /// column the extension or the join already encoded is served as a
  /// reuse hit instead of being rebuilt. `world` must outlive the cache
  /// and is mutated (lazy encodes) only during serial rule registration.
  PairFeatureCache(const Relation* r_ext, const Relation* s_ext,
                   exec::ColumnarWorld* world, exec::WorldRel r_slot,
                   exec::WorldRel s_slot)
      : r_(r_ext), s_(s_ext), world_(world), r_slot_(r_slot),
        s_slot_(s_slot) {}

  /// Interned-id projection of one column (index per that relation's
  /// schema); built on first request.
  const std::vector<uint32_t>& RColumn(size_t column);
  const std::vector<uint32_t>& SColumn(size_t column);

  /// Contiguous views of the same projections — the block evaluator's
  /// gather sources for either orientation. Stable for the session
  /// (world-backed and private slices both keep data() valid).
  exec::IdColumnView RColumnView(size_t column) {
    const std::vector<uint32_t>& ids = RColumn(column);
    return exec::IdColumnView{ids.data(), ids.size()};
  }
  exec::IdColumnView SColumnView(size_t column) {
    const std::vector<uint32_t>& ids = SColumn(column);
    return exec::IdColumnView{ids.data(), ids.size()};
  }

  /// Id of a rule constant under the same interner; kNullId for NULL.
  uint32_t InternConstant(const Value& v);

  /// Whether the column's id slice contains the NULL sentinel. Scanned
  /// once per column and memoized; StagedConjunction::Compile asks so
  /// the block evaluator can strip NULL handling from provably
  /// non-NULL ops.
  bool RColumnMayNull(size_t column);
  bool SColumnMayNull(size_t column);

  /// Distinct non-NULL values interned privately so far (stats); zero on
  /// the world-backed form, whose encode/reuse totals live on the world.
  size_t distinct_values() const { return interner_.size(); }

 private:
  std::vector<uint32_t> BuildColumn(const Relation& rel, size_t column);

  const Relation* r_;
  const Relation* s_;
  exec::ColumnarWorld* world_ = nullptr;
  exec::WorldRel r_slot_ = exec::WorldRel::kRExtended;
  exec::WorldRel s_slot_ = exec::WorldRel::kSExtended;
  ValueInterner interner_;
  std::unordered_map<size_t, std::vector<uint32_t>> r_columns_;
  std::unordered_map<size_t, std::vector<uint32_t>> s_columns_;
  std::unordered_map<size_t, bool> r_may_null_;
  std::unordered_map<size_t, bool> s_may_null_;
};

/// One rule antecedent compiled for the staged candidate generator: the
/// covered conjuncts are dropped (the enumeration enforces them), the
/// rest split into a row part (every operand binds the r side — hoisted
/// out of the pair loop by the generator) and a pair part. kEq/kNe
/// conjuncts run on cached interned-id slices (exact: id equality is
/// storage equality, which is precisely CompareValues-kEq/kNe on
/// non-NULL operands; either side NULL yields kUnknown); ordering
/// conjuncts fall back to CompareValues on the raw rows, which compares
/// numerics cross-type.
/// EID_SHARED_IMMUTABLE: compiled serially (AddRule time), evaluated
/// const from every worker of the staged sweep.
class EID_SHARED_IMMUTABLE StagedConjunction final
    : public exec::StagedEvaluator {
 public:
  static StagedConjunction Compile(
      const std::vector<Predicate>& predicates,
      const std::vector<exec::PredicateCoverage>& coverage,
      const Relation& r_ext, const Relation& s_ext, bool flipped,
      PairFeatureCache* features);

  bool has_row_part() const override { return !row_ops_.empty(); }
  Truth RowTruth(size_t r_row) const override;
  /// Vectorized row pass: evaluates the flat row opcodes op-major over
  /// the cached id slices (value-fallback ops per row), skipping rows
  /// already decided kFalse. out[r] == RowTruth(r) for every r.
  std::vector<Truth> RowTruthAll(size_t n) const override;
  Truth PairTruth(size_t r_row, size_t s_row) const override;
  /// Vectorized pair pass over one candidate block (ISSUE 10 /
  /// DESIGN.md §4h): id_fast ops run op-major — gather the two id lanes
  /// for the whole block, fold a branch-free Kleene mask into the
  /// per-lane accumulator, stop once no lane can still be kTrue — and
  /// value-fallback ops run scalar on the lanes still alive after the
  /// id pass. out[i] == PairTruth(r_rows[i], s_rows[i]) on every lane.
  void PairTruthBlock(const size_t* r_rows, const size_t* s_rows,
                      size_t lanes, Truth* out,
                      exec::PairBlockStats* stats) const override;

 private:
  enum class Src : uint8_t { kRColumn, kSColumn, kConstant, kAbsent };
  struct Slot {
    Src src = Src::kAbsent;
    size_t column = 0;
    Value constant;
    // Interned fast path: the column's id slice (kRColumn/kSColumn) or
    // the constant's id; unused for value-fallback ops. `view` is the
    // contiguous form of `ids` (the block evaluator's gather source).
    const std::vector<uint32_t>* ids = nullptr;
    exec::IdColumnView view;
    uint32_t const_id = PairFeatureCache::kNullId;
  };
  struct Op {
    Slot lhs;
    CompareOp op = CompareOp::kEq;
    Slot rhs;
    bool id_fast = false;  // kEq/kNe over interned ids
    // Whether any operand can be the NULL sentinel (kAbsent slot, NULL
    // constant, or a column slice holding a NULL id — checked against
    // the feature cache at Compile). When false the block evaluator
    // runs this op's lanes with the kUnknown plumbing stripped out.
    bool may_null = true;
  };

  Truth EvaluateOps(const std::vector<Op>& ops, size_t r_row,
                    size_t s_row) const;

  std::vector<Op> row_ops_;
  std::vector<Op> pair_ops_;
  const Relation* r_ = nullptr;
  const Relation* s_ = nullptr;
};

/// Counters of one InternedKeyJoin call.
struct KeyJoinStats {
  size_t interner_values = 0;  // distinct values privately encoded
  size_t probe_batches = 0;    // 256-row R' probe blocks executed
  size_t reuse_hits = 0;       // ids served from the world, not encoded
  double encode_ms = 0.0;      // world-path column encode time
};

/// Joins two extended relations on parallel key-column lists through
/// session value ids. With a non-null `world`, the key columns are the
/// session's shared id slices under the kRExtended/kSExtended slots
/// (encoded at most once across extension / join / rule stages) and the
/// probe reads the world's posting index; otherwise a private world
/// encodes them. S' is indexed on the key column with the most distinct
/// non-NULL ids; each R' row with no NULL key cell takes that column's
/// posting range for its id and verifies the other key columns by id.
/// Returns pairs in the serial probe's order — r-major, s ascending —
/// for any pool size. Pair semantics are identical to the fingerprint
/// join: rows agree non-NULL on every key column.
std::vector<TuplePair> InternedKeyJoin(const Relation& r_ext,
                                       const Relation& s_ext,
                                       const std::vector<size_t>& r_idx,
                                       const std::vector<size_t>& s_idx,
                                       exec::ThreadPool* pool,
                                       exec::ColumnarWorld* world,
                                       KeyJoinStats* stats);

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_PAIR_PROGRAM_H_
