// Instance-level functional dependencies (ILFDs), paper §4.1 & §5.
//
// An ILFD is a semantic constraint on real-world entities:
//
//     (A_1 = a_1) ∧ … ∧ (A_n = a_n)  →  (B = b)
//
// e.g.  speciality=Mughalai → cuisine=Indian.  Unlike a classical FD, the
// antecedent and consequent name specific *values*; checking violation
// involves a single tuple; and the arrow is ordinary logical implication.
// ILFDs derive missing extended-key attribute values during entity
// identification.
//
// The consequent may be a conjunction (the paper combines ILFDs with equal
// antecedents); most ILFDs in practice have a single consequent atom.

#ifndef EID_ILFD_ILFD_H_
#define EID_ILFD_ILFD_H_

#include <string>
#include <vector>

#include "logic/proposition.h"
#include "relational/tuple.h"

namespace eid {

/// One instance-level functional dependency.
class Ilfd {
 public:
  Ilfd() = default;
  /// Precondition (checked): consequent non-empty; no attribute appears
  /// twice in the antecedent with different values; the consequent does not
  /// re-bind an antecedent attribute to a different value (that would be an
  /// unsatisfiable constraint the paper never allows). Callers holding
  /// untrusted atoms (parsers, decoders) check with ValidateIlfdAtoms first.
  Ilfd(std::vector<Atom> antecedent, std::vector<Atom> consequent);

  /// Single-consequent convenience.
  static Ilfd Implies(std::vector<Atom> antecedent, Atom consequent) {
    return Ilfd(std::move(antecedent), {std::move(consequent)});
  }

  const std::vector<Atom>& antecedent() const { return antecedent_; }
  const std::vector<Atom>& consequent() const { return consequent_; }

  /// Attribute names mentioned in the antecedent / consequent.
  std::vector<std::string> AntecedentAttributes() const;
  std::vector<std::string> ConsequentAttributes() const;

  /// Trivial: every consequent atom already appears in the antecedent.
  bool IsTrivial() const;

  /// Unconditional: empty antecedent — the rule fires on every tuple, so
  /// under first-applicable-wins derivation no later rule for the same
  /// attribute (nor the §6.2 NULL default) can ever apply.
  bool IsUnconditional() const { return antecedent_.empty(); }

  /// True iff the tuple's values satisfy every antecedent condition.
  /// A NULL or missing attribute satisfies nothing (prototype semantics).
  bool AntecedentHolds(const TupleView& tuple) const;

  /// True iff the tuple satisfies the ILFD: antecedent false, or every
  /// consequent condition true. Violation checking involves one tuple
  /// (paper §4.1). NULL consequent values count as violations when the
  /// antecedent holds only if `null_violates` (a tuple that *lacks* the
  /// derived property is usually incomplete rather than inconsistent).
  bool SatisfiedBy(const TupleView& tuple, bool null_violates = false) const;

  /// "speciality=Mughalai -> cuisine=Indian" display form; conjunctions
  /// joined with " & ".
  std::string ToString() const;

  bool operator==(const Ilfd& other) const {
    return antecedent_ == other.antecedent_ && consequent_ == other.consequent_;
  }

 private:
  std::vector<Atom> antecedent_;  // sorted by attribute for canonical form
  std::vector<Atom> consequent_;  // sorted by attribute
};

/// The invariants the Ilfd constructor enforces: the consequent is
/// non-empty; neither side binds one attribute to two values; no
/// consequent atom re-binds an antecedent attribute to another value
/// (an unsatisfiable constraint the paper never allows). Returns
/// InvalidArgument naming the first violation. Repeating an atom, or
/// restating an antecedent atom in the consequent, is allowed.
Status ValidateIlfdAtoms(const std::vector<Atom>& antecedent,
                         const std::vector<Atom>& consequent);

/// Parses the textual ILFD format used throughout this library:
///
///     antecedent -> consequent
///     condition (& condition)*   on each side
///     condition := attribute = value
///     value     := "quoted string" | bare-token (int/double if numeric,
///                  string otherwise)
///
/// Example: `name=TwinCities & street=Co.B2 -> speciality=Hunan`.
/// Text that ValidateIlfdAtoms rejects (`a=1 -> a=2`) is
/// InvalidArgument.
Result<Ilfd> ParseIlfd(const std::string& text);

/// Parses one ILFD per non-empty, non-`#`-comment line.
Result<std::vector<Ilfd>> ParseIlfdList(const std::string& text);

/// Parses a single `attribute = value` condition.
Result<Atom> ParseCondition(const std::string& text);

}  // namespace eid

#endif  // EID_ILFD_ILFD_H_
