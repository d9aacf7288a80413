// Sets of ILFDs with the §5 reasoning operations.
//
// An IlfdSet owns an AtomTable interning every (attribute = value)
// condition it has seen, and mirrors its ILFDs into a logic::KnowledgeBase,
// giving:
//
//  * ConditionClosure  — X⁺_F, the closure of a set of conditions
//    (linear-time; the paper notes this mirrors FD attribute closure),
//  * Implies           — F ⊨ f, decided via closure (Theorem 1),
//  * Prove             — an explicit Armstrong-axiom proof of F ⊢ f,
//  * EquivalentTo      — mutual implication of two sets,
//  * MinimalCover      — redundancy removal (extraneous antecedent
//    conditions, then implied ILFDs),
//  * DerivedIlfds      — non-trivial single-consequent ILFDs in F⁺ whose
//    conditions come from a bounded atom universe (used to surface rules
//    like the paper's I9 from I7 + I8). The full closure F⁺ is exponential
//    (§5.2); this enumerates only antecedents that are subsets of existing
//    ILFD antecedent unions, which covers the compositions used in
//    practice.

#ifndef EID_ILFD_ILFD_SET_H_
#define EID_ILFD_ILFD_SET_H_

#include <optional>
#include <string>
#include <vector>

#include "ilfd/ilfd.h"
#include "logic/armstrong.h"
#include "logic/kb.h"

namespace eid {

/// An indexed collection of ILFDs over one entity type.
class IlfdSet {
 public:
  IlfdSet() = default;
  explicit IlfdSet(std::vector<Ilfd> ilfds);

  /// Appends an ILFD; returns its index.
  size_t Add(Ilfd ilfd);
  /// Parses and appends; error on bad syntax.
  Result<size_t> AddText(const std::string& text);

  size_t size() const { return ilfds_.size(); }
  bool empty() const { return ilfds_.empty(); }
  const Ilfd& ilfd(size_t i) const { return ilfds_[i]; }
  const std::vector<Ilfd>& ilfds() const { return ilfds_; }

  const AtomTable& atoms() const { return atoms_; }
  const KnowledgeBase& kb() const { return kb_; }

  /// Every attribute some ILFD concludes, ascending.
  std::vector<std::string> ConsequentAttributes() const;

  /// The type of a column appended for `attribute` when extending a
  /// relation (eid/extension.h): the type of the value the *last* ILFD
  /// concluding a non-NULL `attribute` gives it, or kString when no ILFD
  /// does. Kept up to date by Add.
  ValueType ConsequentType(const std::string& attribute) const;

  /// Closure of the given conditions under this set: every condition
  /// derivable from them. Input conditions are included in the output.
  std::vector<Atom> ConditionClosure(const std::vector<Atom>& conditions) const;

  /// F ⊨ f. ILFDs whose conditions were never interned are handled
  /// correctly (an unseen consequent atom is underivable unless present in
  /// the antecedent).
  bool Implies(const Ilfd& f) const;

  /// Armstrong-axiom proof of F ⊢ f; NotFound when F does not entail f.
  /// When `table_out` is non-null it receives an atom table covering every
  /// atom the proof mentions (use it for Proof::ToString — the proof may
  /// reference atoms of f that this set never interned).
  Result<Proof> Prove(const Ilfd& f, AtomTable* table_out = nullptr) const;

  /// Mutual implication: this ⊨ every ILFD of other, and vice versa.
  bool EquivalentTo(const IlfdSet& other) const;

  /// True iff removing index `i` leaves an equivalent set.
  bool IsRedundant(size_t i) const;

  /// A minimal cover: antecedent conditions that are extraneous are
  /// removed, then ILFDs implied by the rest are dropped. The result is
  /// equivalent to this set.
  IlfdSet MinimalCover() const;

  /// Derived non-trivial ILFDs (see header comment). `max_antecedent`
  /// bounds enumerated antecedent size.
  std::vector<Ilfd> DerivedIlfds(size_t max_antecedent = 3) const;

  /// Converts an ILFD into an Implication over this set's atom table,
  /// interning new conditions into a scratch copy when needed. Marked const
  /// because reasoning helpers need it; uses the mutable scratch table.
  Implication ToImplication(const Ilfd& f, AtomTable* table) const;

  std::string ToString() const;

 private:
  /// What the ILFDs conclude about one attribute (by atom-table
  /// attribute ordinal).
  struct Consequent {
    bool concluded = false;
    std::optional<ValueType> type;  // see ConsequentType
  };

  std::vector<Ilfd> ilfds_;
  AtomTable atoms_;
  KnowledgeBase kb_;
  std::vector<Consequent> consequents_;  // by attribute ordinal
};

}  // namespace eid

#endif  // EID_ILFD_ILFD_SET_H_
