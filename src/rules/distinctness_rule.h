// Distinctness rules (paper §3.2) and the Proposition 1 bridge to ILFDs.
//
// A distinctness rule has the form
//
//   ∀e1,e2 ∈ E:  P(e1.A1,…,e1.Am, e2.B1,…,e2.Bn) → (e1 ≢ e2)
//
// Well-formedness: P must involve some attribute from each of e1 and e2.
// Example (the paper's r3): e1.speciality = "Mughalai" ∧ e2.cuisine ≠
// "Indian" → e1 ≠ e2.
//
// Proposition 1: `(E.A1=a1) ∧…∧ (E.An=an) → (E.B=b)` is an ILFD iff
// `∀e1,e2: (e1.A1=a1) ∧…∧ (e1.An=an) ∧ (e2.B≠b) → e1 ≠ e2` is a
// distinctness rule. The converters below realise both directions.

#ifndef EID_RULES_DISTINCTNESS_RULE_H_
#define EID_RULES_DISTINCTNESS_RULE_H_

#include <string>
#include <vector>

#include "ilfd/ilfd.h"
#include "rules/predicate.h"

namespace eid {

/// A rule asserting two entities are distinct.
class DistinctnessRule {
 public:
  DistinctnessRule() = default;
  DistinctnessRule(std::string name, std::vector<Predicate> predicates)
      : name_(std::move(name)), predicates_(std::move(predicates)) {}

  const std::string& name() const { return name_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// Well-formedness: P involves at least one attribute of e1 and one of e2.
  Status Validate() const;

  /// Three-valued antecedent evaluation. kTrue asserts e1 ≢ e2.
  Truth Applies(const TupleView& e1, const TupleView& e2) const;

  /// "... -> e1 != e2" display form.
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Predicate> predicates_;
};

/// Proposition 1, forward direction: the distinctness rule induced by an
/// ILFD. Requires a single-consequent ILFD (decompose first).
Result<DistinctnessRule> DistinctnessRuleFromIlfd(const Ilfd& ilfd);

/// Proposition 1, reverse direction: recovers the ILFD from a distinctness
/// rule of the induced shape — every predicate an e1-attribute/constant
/// equality except exactly one `e2.B != b`. Error for other shapes (not
/// every distinctness rule corresponds to an ILFD).
Result<Ilfd> IlfdFromDistinctnessRule(const DistinctnessRule& rule);

/// Parses a distinctness rule from conjunction syntax, e.g.
///   `e1.speciality = "Mughalai" & e2.cuisine != "Indian"`.
Result<DistinctnessRule> ParseDistinctnessRule(const std::string& name,
                                               const std::string& text);

}  // namespace eid

#endif  // EID_RULES_DISTINCTNESS_RULE_H_
