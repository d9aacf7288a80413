// Compiled ILFD derivation.
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
// The program borrows the IlfdSet's knowledge base and atom table, and
// must not outlive the set: the batch engine's set outlives its
// ExtendRelation call, and IncrementalIdentifier keeps its config at a
// stable heap address. Execution semantics (derived values,
// step/provenance order, conflict handling, error text) are
// bit-identical to DeriveTuple; tests/compile/ enforces this
// differentially.

#ifndef EID_COMPILE_DERIVATION_PROGRAM_H_
#define EID_COMPILE_DERIVATION_PROGRAM_H_

#include <optional>
#include <string>
#include <vector>

#include "base/thread_annotations.h"
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

/// A DerivationProgram's seed columns bound to the session's columnar
/// world (DESIGN.md §4g): per-column pre-encoded id slices plus dict-id ->
/// AtomId seed tables, built once per (program, relation) and shared
/// read-only by every sweep worker (EID_SHARED_IMMUTABLE). With a
/// binding, seeding a row's closure is two array loads per column and
/// hashes no Value. Empty under kFirstMatch, which seeds no closure.
struct EID_SHARED_IMMUTABLE ColumnarBinding {
  /// Parallel to the program's seed columns: the column's id slice (rows
  /// entries), or nullptr for columns beyond the source relation's arity
  /// — extension-appended columns whose cells are all NULL at derive
  /// time.
  std::vector<const uint32_t*> seed_ids;
  /// Parallel to seed columns: dictionary id -> AtomId, kNoAtom where the
  /// value is not an atom of that attribute.
  std::vector<std::vector<AtomId>> atom_of_id;
  size_t rows = 0;

  static constexpr AtomId kNoAtom = 0xffffffffu;
};

/// An IlfdSet + DerivationOptions lowered onto one extended schema.
/// EID_SHARED_IMMUTABLE: compiled serially once per session, then read
/// concurrently by every worker of the derivation sweep (Derive is
/// const; all mutable sweep state lives in the per-worker evaluator and
/// `writes` the caller passes in).
class EID_SHARED_IMMUTABLE DerivationProgram {
 public:
  /// Lowers `ilfds` under `options` onto `schema`. Total: never fails.
  /// The program borrows `ilfds`' knowledge base and atom table, so it
  /// must not outlive `ilfds`, and `ilfds` must not change meanwhile.
  static DerivationProgram Compile(const Schema& schema, const IlfdSet& ilfds,
                                   const DerivationOptions& options);

  /// Derives the missing values of `row` (which must match the compiled
  /// schema). Identical to DeriveTuple(TupleView(schema, row), ilfds,
  /// options). `writes` receives the derived values that land in schema
  /// columns (cleared first) — apply each to a NULL cell, as the
  /// interpreter's callers do by name. `evaluator` must be constructed
  /// over this program's kb(); kFirstMatch does not use it.
  Result<Derivation> Derive(const Row& row, ClosureEvaluator& evaluator,
                            std::vector<DerivationWrite>* writes) const;

  /// Binds the program's seed columns to `rel`'s id columns in `world`
  /// under `slot`, encoding any column not yet encoded. Columns at schema
  /// positions beyond `rel`'s arity (appended by extension, all-NULL at
  /// derive time) bind as nullptr slices. Serial — call once per sweep
  /// before the workers start.
  ColumnarBinding BindColumns(exec::ColumnarWorld& world, exec::WorldRel slot,
                              const Relation& rel) const;

  /// Columnar Derive: identical results to Derive(row, ...) when
  /// `binding` was built over the relation `row` came from and
  /// `row_index` is its position — closure seeds are gathered from the
  /// binding's id slices instead of hashing Values.
  Result<Derivation> Derive(const Row& row, size_t row_index,
                            const ColumnarBinding& binding,
                            ClosureEvaluator& evaluator,
                            std::vector<DerivationWrite>* writes) const;

  /// The borrowed knowledge base; clause indices equal the source
  /// IlfdSet's ILFD indices. Build per-worker ClosureEvaluators over this.
  const KnowledgeBase& kb() const { return *kb_; }
  const Schema& schema() const { return schema_; }

 private:
  /// A schema column whose attribute has interned atoms, with the
  /// AtomTable's value -> atom index used to seed the closure.
  struct SeedColumn {
    size_t column = 0;
    const AtomTable::AttributeAtoms* atoms = nullptr;
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

  Result<Derivation> RunExhaustive(const Row& row, const AtomId* seed,
                                   size_t count, ClosureEvaluator& evaluator,
                                   std::vector<DerivationWrite>* writes) const;
  Result<Derivation> RunFirstMatch(
      const Row& row, std::vector<DerivationWrite>* writes) const;
  Value ResolveFirstMatch(uint32_t slot, const Row& row, FmState* state,
                          Derivation* out) const;

  Schema schema_;
  DerivationMode mode_ = DerivationMode::kExhaustive;
  ConflictPolicy conflict_policy_ = ConflictPolicy::kError;
  const KnowledgeBase* kb_ = nullptr;  // borrowed from the IlfdSet
  const AtomTable* atoms_ = nullptr;   // borrowed from the IlfdSet

  // kExhaustive state.
  std::vector<SeedColumn> seed_columns_;       // ascending columns
  std::vector<uint32_t> slot_of_atom_;         // AtomId -> slot / kNoSlot
  std::vector<ConsSlot> cons_slots_;

  // kFirstMatch state.
  std::vector<FmAttr> fm_attrs_;
  std::vector<FmRule> fm_rules_;
  std::vector<uint32_t> fm_targets_;  // slots, in interpreter target order
};

}  // namespace compile
}  // namespace eid

#endif  // EID_COMPILE_DERIVATION_PROGRAM_H_
