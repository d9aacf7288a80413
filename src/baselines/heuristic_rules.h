// Baseline 5 (§2.2): heuristic rules (Wang & Madnick 1989).
//
// A knowledge-based approach: heuristic inference rules derive additional
// information about the instances and assert matches. "Because the
// knowledge used is heuristic in nature, the matching result produced may
// not be correct." We model this as identity-rule-shaped implications that
// are *not* subjected to the paper's §3.2 well-formedness validation —
// e.g. "same name ⇒ same entity" — plus optional ILFD-style heuristics
// used during derivation. Comparing this matcher with the validated
// EntityIdentifier isolates the value of the soundness discipline.

#ifndef EID_BASELINES_HEURISTIC_RULES_H_
#define EID_BASELINES_HEURISTIC_RULES_H_

#include "baselines/baseline.h"
#include "eid/correspondence.h"
#include "ilfd/derivation.h"
#include "rules/identity_rule.h"

namespace eid {

/// Options for HeuristicRuleMatcher.
struct HeuristicRuleOptions {
  /// Heuristic derivation knowledge applied before rule evaluation (may be
  /// plausible-but-wrong, unlike validated ILFDs).
  IlfdSet heuristics;
  /// Enforce one-to-one matching (first rule hit wins).
  bool one_to_one = true;
};

/// Applies unvalidated match rules over (heuristically extended) tuples.
class HeuristicRuleMatcher : public BaselineMatcher {
 public:
  HeuristicRuleMatcher(AttributeCorrespondence corr,
                       std::vector<IdentityRule> rules,
                       HeuristicRuleOptions options = {})
      : corr_(std::move(corr)),
        rules_(std::move(rules)),
        options_(std::move(options)) {}

  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

 private:
  AttributeCorrespondence corr_;
  std::vector<IdentityRule> rules_;  // deliberately not Validate()d
  HeuristicRuleOptions options_;
};

}  // namespace eid

#endif  // EID_BASELINES_HEURISTIC_RULES_H_
