#include "rules/distinctness_rule.h"

#include "rules/identity_rule.h"

namespace eid {

Status DistinctnessRule::Validate() const {
  if (predicates_.empty()) {
    return Status::InvalidArgument("distinctness rule '" + name_ +
                                   "' has no predicates");
  }
  bool has_e1 = false, has_e2 = false;
  for (const Predicate& p : predicates_) {
    for (const Operand* o : {&p.lhs, &p.rhs}) {
      if (o->kind != Operand::Kind::kEntityAttribute) continue;
      if (o->entity == 1) has_e1 = true;
      if (o->entity == 2) has_e2 = true;
    }
  }
  if (!has_e1 || !has_e2) {
    return Status::InvalidArgument(
        "distinctness rule '" + name_ +
        "' must involve some attribute from each of e1 and e2 (paper §3.2)");
  }
  return Status::Ok();
}

Truth DistinctnessRule::Applies(const TupleView& e1,
                                const TupleView& e2) const {
  return EvaluateConjunction(predicates_, e1, e2);
}

std::string DistinctnessRule::ToString() const {
  std::string out;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(" + predicates_[i].ToString() + ")";
  }
  out += " -> e1 != e2";
  return out;
}

Result<DistinctnessRule> DistinctnessRuleFromIlfd(const Ilfd& ilfd) {
  if (ilfd.consequent().size() != 1) {
    return Status::InvalidArgument(
        "Proposition 1 conversion requires a single-consequent ILFD; "
        "decompose '" +
        ilfd.ToString() + "' first");
  }
  std::vector<Predicate> predicates;
  for (const Atom& a : ilfd.antecedent()) {
    predicates.push_back(Predicate{Operand::Attr(1, a.attribute),
                                   CompareOp::kEq, Operand::Const(a.value)});
  }
  const Atom& c = ilfd.consequent()[0];
  predicates.push_back(Predicate{Operand::Attr(2, c.attribute), CompareOp::kNe,
                                 Operand::Const(c.value)});
  return DistinctnessRule("prop1(" + ilfd.ToString() + ")",
                          std::move(predicates));
}

Result<Ilfd> IlfdFromDistinctnessRule(const DistinctnessRule& rule) {
  std::vector<Atom> antecedent;
  std::optional<Atom> consequent;
  for (const Predicate& p : rule.predicates()) {
    // Expect attribute op constant, attribute on the left.
    if (p.lhs.kind != Operand::Kind::kEntityAttribute ||
        p.rhs.kind != Operand::Kind::kConstant) {
      return Status::InvalidArgument(
          "rule predicate '" + p.ToString() +
          "' is not of the ILFD-induced shape (eN.attr op constant)");
    }
    if (p.lhs.entity == 1 && p.op == CompareOp::kEq) {
      antecedent.push_back(Atom{p.lhs.attribute, p.rhs.constant});
      continue;
    }
    if (p.lhs.entity == 2 && p.op == CompareOp::kNe) {
      if (consequent.has_value()) {
        return Status::InvalidArgument(
            "rule has more than one e2-inequality; not ILFD-induced");
      }
      consequent = Atom{p.lhs.attribute, p.rhs.constant};
      continue;
    }
    return Status::InvalidArgument("predicate '" + p.ToString() +
                                   "' is not of the ILFD-induced shape");
  }
  if (antecedent.empty() || !consequent.has_value()) {
    return Status::InvalidArgument(
        "rule lacks the e1-equalities or the e2-inequality of the "
        "ILFD-induced shape");
  }
  return Ilfd::Implies(std::move(antecedent), std::move(*consequent));
}

Result<DistinctnessRule> ParseDistinctnessRule(const std::string& name,
                                               const std::string& text) {
  EID_ASSIGN_OR_RETURN(std::vector<Predicate> predicates,
                       ParsePredicateConjunction(text));
  return DistinctnessRule(name, std::move(predicates));
}

}  // namespace eid
