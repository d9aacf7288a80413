// Compiled ILFD derivation with a projection-keyed memo cache.
//
// DeriveTuple (ilfd/derivation.h) re-binds attribute names against the
// schema and rebuilds AtomTable string keys for every tuple. A
// DerivationProgram performs that binding once per (schema, IlfdSet,
// options) triple — once per Identify / IncrementalIdentifier session:
//
//   * seed columns — the schema positions whose attribute has interned
//     atoms, each with the attribute's value -> atom index, so seeding
//     the forward closure is one hash probe per non-NULL cell;
//   * consequent slots — every clause-head attribute resolved to a dense
//     slot carrying its (optional) schema column and target-filter flag,
//     so the firing loop and base-conflict checks are array accesses;
//   * first-match rules — antecedent/consequent atoms bound to dense
//     attribute slots with per-attribute rule lists, preserving the
//     Prolog-cut rule order the prototype semantics require.
//
// Binding is total: attributes absent from the schema get empty columns
// that behave exactly like TupleView::GetOrNull returning NULL, so
// compilation cannot fail anywhere eid-lint passes.
//
// The program copies the schema, knowledge base and the per-atom data it
// needs — it is self-contained, so sessions can store it by value and
// move freely. Execution semantics (derived values, step/provenance
// order, conflict handling, error text) are bit-identical to DeriveTuple;
// tests/compile/ enforces this differentially.
//
// DerivationMemo adds the cache: rows are keyed by their projection onto
// the columns the ILFD program can read (antecedent sources, consequent
// columns, targets), as interned ids. Rows agreeing on that projection
// derive identically — same values, same provenance — under both
// kExhaustive and kFirstMatch, so low-cardinality workloads derive each
// distinct projection once. Failed derivations are never cached (their
// error text cites the full tuple, which the key does not cover).

#ifndef EID_COMPILE_DERIVATION_PROGRAM_H_
#define EID_COMPILE_DERIVATION_PROGRAM_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/thread_annotations.h"
#include "compile/interner.h"
#include "exec/columnar_world.h"
#include "ilfd/derivation.h"
#include "ilfd/ilfd_set.h"
#include "logic/kb.h"

namespace eid {
namespace compile {

/// One column-resolved derived value, ready to apply to a row without a
/// by-name schema lookup.
struct DerivationWrite {
  size_t column = 0;
  Value value;
};

/// Per-worker derivation cache (EID_PER_WORKER: one instance per
/// ParallelFor worker, like ClosureEvaluator — never shared, never
/// locked; the determinism contract rests on that ownership, see
/// DESIGN.md §4f). Owns its interner, so caches never leak entries
/// across relations or sessions.
///
/// The cache is adaptive: when the projection key space turns out to be
/// as large as the input (e.g. rule sets carrying per-entity ILFDs, where
/// every row projects uniquely), key building and entry insertion are
/// pure overhead — so after kAbandonMissLimit misses with a hit rate
/// below 1/8 (or kEarlyAbandonMissLimit consecutive misses without a
/// single hit) the memo switches itself off, frees its entries, and
/// every later Derive runs uncached. Derivation results are identical
/// either way; only the hit/miss counters stop advancing.
class EID_PER_WORKER DerivationMemo {
 public:
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  /// Distinct values interned while building keys.
  size_t interner_size() const { return interner_.size(); }
  size_t size() const { return entries_.size(); }

 private:
  friend class DerivationProgram;
  struct Entry {
    Derivation trace;
    std::vector<DerivationWrite> writes;
  };
  static constexpr size_t kAbandonMissLimit = 512;
  static constexpr size_t kEarlyAbandonMissLimit = 128;

  // Which key encoding this memo has seen: row keys intern Values into
  // the private interner_; columnar keys gather pre-encoded session ids.
  // The two id-spaces are incompatible, so one memo must never mix them.
  enum class KeySpace : uint8_t { kUnset, kRow, kColumnar };

  ValueInterner interner_;
  std::unordered_map<std::vector<uint32_t>, Entry, InternedKeyHash> entries_;
  std::vector<uint32_t> key_scratch_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  bool abandoned_ = false;
  KeySpace key_space_ = KeySpace::kUnset;
};

/// A DerivationProgram's memo/seed projection bound to the session's
/// columnar world (DESIGN.md §4g): per-column pre-encoded id slices plus
/// dict-id -> AtomId seed tables, built once per (program, relation) and
/// shared read-only by every sweep worker (EID_SHARED_IMMUTABLE). With a
/// binding, the per-row derivation hot path touches no Value at all until
/// a memo miss actually runs the closure: memo keys are gathered from id
/// slices and closure seeds are two array loads per column.
struct EID_SHARED_IMMUTABLE ColumnarBinding {
  /// Parallel to DerivationProgram::memo_columns(): the column's id slice
  /// (rows entries), or nullptr for columns beyond the source relation's
  /// arity — extension-appended columns whose cells are all NULL at
  /// derive time (gathered as ColumnarWorld::kNullId).
  std::vector<const uint32_t*> memo_ids;
  /// kExhaustive only, parallel to the program's seed columns: id slice
  /// or nullptr (same convention as memo_ids).
  std::vector<const uint32_t*> seed_ids;
  /// kExhaustive only, parallel to seed columns: dictionary id -> AtomId,
  /// kNoAtom where the value is not an atom of that attribute.
  std::vector<std::vector<AtomId>> atom_of_id;
  size_t rows = 0;

  static constexpr AtomId kNoAtom = 0xffffffffu;
};

/// An IlfdSet + DerivationOptions lowered onto one extended schema.
/// EID_SHARED_IMMUTABLE: compiled serially once per session, then read
/// concurrently by every worker of the derivation sweep (Derive is
/// const; all mutable sweep state lives in the per-worker evaluator,
/// memo and `writes` the caller passes in).
class EID_SHARED_IMMUTABLE DerivationProgram {
 public:
  /// Lowers `ilfds` under `options` onto `schema`. Total: never fails.
  /// The program copies the knowledge base — self-contained, movable.
  static DerivationProgram Compile(const Schema& schema, const IlfdSet& ilfds,
                                   const DerivationOptions& options);

  /// Like Compile, but borrows `ilfds`' knowledge base instead of copying
  /// it — the copy is the dominant lowering cost for large rule sets
  /// (per-entity ILFD families scale with the relation). The program must
  /// not outlive `ilfds`. The batch engine uses this (the IlfdSet outlives
  /// the ExtendRelation call); sessions that store the program across
  /// moves (IncrementalIdentifier) use Compile.
  static DerivationProgram CompileBorrowed(const Schema& schema,
                                           const IlfdSet& ilfds,
                                           const DerivationOptions& options);

  /// Derives the missing values of `row` (which must match the compiled
  /// schema). Identical to DeriveTuple(TupleView(schema, row), ilfds,
  /// options). `writes` receives the derived values that land in schema
  /// columns (cleared first) — apply each to a NULL cell, as the
  /// interpreter's callers do by name.
  ///
  /// `evaluator` (kExhaustive only) must be constructed over this
  /// program's kb(); null falls back to a one-shot closure. `memo` may be
  /// null to disable caching; a memo must not be shared across programs.
  Result<Derivation> Derive(const Row& row, ClosureEvaluator* evaluator,
                            DerivationMemo* memo,
                            std::vector<DerivationWrite>* writes) const;

  /// Binds the program's memo/seed projection to `rel`'s id columns in
  /// `world` under `slot`, encoding any column not yet encoded. Columns
  /// at schema positions beyond `rel`'s arity (appended by extension,
  /// all-NULL at derive time) bind as nullptr slices. Serial — call once
  /// per sweep before the workers start.
  ColumnarBinding BindColumns(exec::ColumnarWorld& world, exec::WorldRel slot,
                              const Relation& rel) const;

  /// Columnar Derive: identical results to Derive(row, ...) when
  /// `binding` was built over the relation `row` came from and
  /// `row_index` is its position — memo keys and closure seeds are
  /// gathered from the binding's id slices instead of hashing Values.
  /// A memo must stick to one keying (row or columnar) for its lifetime.
  Result<Derivation> Derive(const Row& row, size_t row_index,
                            const ColumnarBinding& binding,
                            ClosureEvaluator* evaluator, DerivationMemo* memo,
                            std::vector<DerivationWrite>* writes) const;

  /// The program's knowledge base — its private copy (Compile) or the
  /// borrowed source (CompileBorrowed); clause indices equal the source
  /// IlfdSet's ILFD indices. Build per-worker ClosureEvaluators over this.
  const KnowledgeBase& kb() const {
    return kb_view_ != nullptr ? *kb_view_ : kb_;
  }
  const Schema& schema() const { return schema_; }
  /// Ascending schema columns forming the memo key projection.
  const std::vector<size_t>& memo_columns() const { return memo_columns_; }

 private:
  /// A schema column whose attribute has interned atoms, with the
  /// value -> atom index used to seed the closure. CompileBorrowed points
  /// `atoms` straight at the AtomTable's per-attribute index; Compile
  /// keeps a private copy alive via `owned` (shared_ptr so the program
  /// stays copyable and the pointer survives moves).
  struct SeedColumn {
    size_t column = 0;
    const AtomTable::AttributeAtoms* atoms = nullptr;
    std::shared_ptr<const AtomTable::AttributeAtoms> owned;
  };
  /// One consequent attribute (kExhaustive).
  struct ConsSlot {
    std::string attribute;
    std::optional<size_t> column;  // in the schema; nullopt = unmodeled
    bool wanted = true;            // passes the target filter
  };
  /// One condition bound to a dense attribute slot (kFirstMatch).
  struct FmCond {
    uint32_t slot = 0;
    Value value;
  };
  /// One ILFD in first-match form; its index is the ILFD's index.
  struct FmRule {
    std::vector<FmCond> antecedent;
    std::vector<FmCond> consequent;
  };
  /// An ILFD able to head `attribute` with `head_value` (first consequent
  /// atom for the attribute, matching the interpreter's scan).
  struct FmAttrRule {
    uint32_t rule = 0;  // index into fm_rules_ == ILFD index
    Value head_value;
  };
  /// One attribute of the first-match universe (antecedents, consequents
  /// and targets).
  struct FmAttr {
    std::string name;
    std::optional<size_t> column;
    std::vector<FmAttrRule> rules;  // in ILFD declaration order
  };
  struct FmState;

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  static DerivationProgram CompileImpl(const Schema& schema,
                                       const IlfdSet& ilfds,
                                       const DerivationOptions& options,
                                       bool borrow_kb);

  const Value& AtomValue(AtomId id) const {
    return atoms_view_ != nullptr ? atoms_view_->atom(id).value
                                  : value_of_atom_[id];
  }

  Result<Derivation> RunUncached(const Row& row, ClosureEvaluator* evaluator,
                                 std::vector<DerivationWrite>* writes) const;
  Result<Derivation> RunUncachedColumnar(
      const Row& row, size_t row_index, const ColumnarBinding& binding,
      ClosureEvaluator* evaluator, std::vector<DerivationWrite>* writes) const;
  Result<Derivation> RunExhaustive(const Row& row,
                                   ClosureEvaluator* evaluator,
                                   std::vector<DerivationWrite>* writes) const;
  Result<Derivation> RunExhaustiveSeeded(
      const Row& row, AtomSet seed_set, ClosureEvaluator* evaluator,
      std::vector<DerivationWrite>* writes) const;
  Result<Derivation> ApplyDerived(const Row& row,
                                  const std::vector<DerivedAtom>& events,
                                  std::vector<DerivationWrite>* writes) const;
  Result<Derivation> RunFirstMatch(
      const Row& row, std::vector<DerivationWrite>* writes) const;
  Value ResolveFirstMatch(uint32_t slot, const Row& row, FmState* state,
                          Derivation* out) const;

  Schema schema_;
  DerivationMode mode_ = DerivationMode::kExhaustive;
  ConflictPolicy conflict_policy_ = ConflictPolicy::kError;
  std::vector<size_t> memo_columns_;

  // kExhaustive state. Exactly one of kb_ / kb_view_ is live: Compile
  // fills kb_; CompileBorrowed points kb_view_ at the caller's base and
  // atoms_view_ at its atom table (skipping the per-atom value copy).
  KnowledgeBase kb_;
  const KnowledgeBase* kb_view_ = nullptr;
  const AtomTable* atoms_view_ = nullptr;
  std::vector<SeedColumn> seed_columns_;       // ascending columns
  std::vector<uint32_t> slot_of_atom_;         // AtomId -> slot / kNoSlot
  std::vector<Value> value_of_atom_;           // AtomId -> value (owned mode)
  std::vector<ConsSlot> cons_slots_;

  // kFirstMatch state.
  std::vector<FmAttr> fm_attrs_;
  std::vector<FmRule> fm_rules_;
  std::vector<uint32_t> fm_targets_;  // slots, in interpreter target order
};

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_DERIVATION_PROGRAM_H_
