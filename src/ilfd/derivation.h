// Deriving missing attribute values of a tuple from ILFDs (paper §4.2 step
// 2: "Apply the available ILFDs to derive the values for K_Ext−R and
// K_Ext−S for each R' and S' tuple").
//
// Two strategies are provided:
//
//  * kFirstMatch — the Prolog prototype's semantics. Each ILFD rule ends
//    with a cut: for a queried attribute, rules are tried in declaration
//    order and the first whose antecedent succeeds commits the value.
//    Antecedent conditions may themselves query derived attributes
//    (backward chaining), as in the paper's I8 using the county derived by
//    I7. A NULL default applies when every rule fails (§6.2).
//
//  * kExhaustive — forward chaining to fixpoint, deriving every value any
//    ILFD can produce. Two ILFDs deriving *different* values for the same
//    attribute are reported as a conflict: under the paper's assumptions
//    (all tuples consistent with the ILFDs) this cannot happen, so a
//    conflict is evidence of dirty data or wrong ILFDs, and silently
//    picking one (as the prototype's cut does) risks unsound matches.
//
// Both record provenance: which ILFD produced each derived value.

#ifndef EID_ILFD_DERIVATION_H_
#define EID_ILFD_DERIVATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ilfd/ilfd_set.h"
#include "relational/tuple.h"

namespace eid {

/// Derivation strategy.
enum class DerivationMode {
  kFirstMatch,  // prototype (Prolog cut) semantics
  kExhaustive,  // fixpoint with conflict detection
};

/// What to do when exhaustive derivation finds two values for an attribute.
enum class ConflictPolicy {
  kError,      // fail the derivation (default: surface dirty data)
  kKeepFirst,  // keep the first-derived value, record the conflict
  kNullOut,    // derive NULL for the conflicted attribute, record it
};

/// One derived value with its provenance.
struct DerivationStep {
  std::string attribute;
  Value value;
  size_t ilfd_index = 0;  // index into the IlfdSet
};

/// Provenance sentinel used in DerivationConflict: the first value came
/// from the base tuple, not from an ILFD.
inline constexpr size_t kDerivationBaseProvenance = static_cast<size_t>(-1);

/// A conflicting second derivation for an already-derived attribute.
struct DerivationConflict {
  std::string attribute;
  Value first_value;
  Value second_value;
  size_t first_ilfd = 0;
  size_t second_ilfd = 0;

  bool operator==(const DerivationConflict&) const = default;
};

/// The ConstraintViolation status reported for an exhaustive-mode conflict
/// under ConflictPolicy::kError. `tuple_display` is the derived tuple's
/// TupleView::ToString() form. Shared between the interpreter and the
/// compiled engine (src/compile/) so their error text is byte-identical.
Status DerivationConflictError(const DerivationConflict& conflict,
                               const std::string& tuple_display);

/// Result of deriving one tuple's missing values.
struct Derivation {
  /// attribute -> derived value, for attributes not already non-NULL.
  std::map<std::string, Value> derived;
  /// Provenance, in derivation order.
  std::vector<DerivationStep> steps;
  /// Conflicts found (kExhaustive only; empty under kError since the
  /// derivation fails instead).
  std::vector<DerivationConflict> conflicts;
};

/// The derivation provenance of a whole relation in CSR form (compressed
/// sparse rows): row r's steps are one run [row_begin(r), row_end(r)) of a
/// flat step array, each step the head atom a derivation bound — which
/// names both the attribute and the value — and the ILFD that bound it.
/// One bit per step marks the steps whose value lands in the row's
/// `derived` map; conflicts are kept aside, keyed by row. Atom ids index
/// the AtomTable of the IlfdSet the rows were derived with, and
/// DerivationOf rebuilds DeriveTuple's Derivation for one row from them
/// exactly.
///
/// Built one row at a time: AddStep, MarkDerived and AddConflict fill the
/// open row and EndRow closes it. The compiled engine
/// (compile::DerivationProgram) records into one per sweep chunk, and
/// extension joins the chunks in row order with Append.
class Provenance {
 public:
  struct Step {
    AtomId atom = 0;    // the head atom the step bound
    uint32_t ilfd = 0;  // index into the IlfdSet

    bool operator==(const Step&) const = default;
  };
  struct RowConflict {
    size_t row = 0;
    DerivationConflict conflict;

    bool operator==(const RowConflict&) const = default;
  };

  /// Closed rows.
  size_t rows() const { return ends_.size(); }
  /// Steps over every row, the open one included.
  size_t step_count() const { return steps_.size(); }
  const Step& step(size_t i) const { return steps_[i]; }
  size_t row_begin(size_t row) const { return row == 0 ? 0 : ends_[row - 1]; }
  size_t row_end(size_t row) const { return ends_[row]; }
  /// True when step `i`'s value lands in its row's `derived` map.
  bool derived(size_t i) const { return (derived_[i / 64] >> (i % 64)) & 1; }
  /// Steps marked derived: the number of values the rows derived.
  size_t derived_count() const;
  /// Ascending by row, in derivation order within a row.
  const std::vector<RowConflict>& conflicts() const { return conflicts_; }

  /// DeriveTuple's Derivation for `row`, rebuilt: the derived map, the
  /// steps in order and the conflicts. `ilfds` must be the set the rows
  /// were derived with.
  Derivation DerivationOf(size_t row, const IlfdSet& ilfds) const;

  /// Appends a step to the open row; returns its index.
  size_t AddStep(AtomId atom, uint32_t ilfd) {
    if (steps_.size() % 64 == 0) derived_.push_back(0);
    steps_.push_back(Step{atom, ilfd});
    return steps_.size() - 1;
  }
  /// Marks step `i` as landing in its row's `derived` map.
  void MarkDerived(size_t i) { derived_[i / 64] |= uint64_t{1} << (i % 64); }
  /// Records a conflict of the open row.
  void AddConflict(DerivationConflict conflict) {
    conflicts_.push_back(RowConflict{rows(), std::move(conflict)});
  }
  /// Closes the open row.
  void EndRow();
  /// Appends `other`'s rows after this one's. No row may be open.
  void Append(const Provenance& other);
  void Clear();

  bool operator==(const Provenance&) const = default;

 private:
  std::vector<uint32_t> ends_;  // row -> one past its last step
  std::vector<Step> steps_;
  std::vector<uint64_t> derived_;  // one bit per step
  std::vector<RowConflict> conflicts_;
};

/// Options for DeriveTuple.
struct DerivationOptions {
  DerivationMode mode = DerivationMode::kExhaustive;
  ConflictPolicy conflict_policy = ConflictPolicy::kError;
  /// Attributes to derive; empty = every consequent attribute any ILFD can
  /// produce.
  std::vector<std::string> target_attributes;
};

/// Derives missing attribute values for `tuple` using `ilfds`.
/// Base (non-NULL) tuple values are never overwritten; an ILFD whose
/// consequent contradicts a base value is reported as a conflict against
/// the base data in kExhaustive mode and simply not applied in kFirstMatch
/// mode (the prototype asserts base facts ahead of rules, so rules for an
/// attribute are only reached when the base value is absent).
Result<Derivation> DeriveTuple(const TupleView& tuple, const IlfdSet& ilfds,
                               const DerivationOptions& options = {});

/// Batch form: reuses `evaluator` — which must have been constructed over
/// `ilfds.kb()` — across calls, so deriving a whole relation costs time
/// proportional to the clauses each tuple actually reaches instead of
/// O(|tuples| × |ILFDs|). Only kExhaustive mode uses the evaluator.
Result<Derivation> DeriveTuple(const TupleView& tuple, const IlfdSet& ilfds,
                               const DerivationOptions& options,
                               ClosureEvaluator* evaluator);

}  // namespace eid

#endif  // EID_ILFD_DERIVATION_H_
