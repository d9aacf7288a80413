// Baseline 4 (§2.2): probabilistic attribute equivalence
// (Chatterjee & Segev 1991).
//
// For each pair of records, a *comparison value* is computed from all
// common attributes: a weighted sum of per-attribute agreement indicators
// (a simplified Fellegi–Sunter-style model). Pairs above a high threshold
// are declared matching, below a low threshold non-matching, in between
// undetermined. §2.1 demonstrates that agreeing on all common attributes
// does not guarantee entity equality — this baseline is the one Fig. 2
// shows producing unsound matches.

#ifndef EID_BASELINES_PROBABILISTIC_ATTR_H_
#define EID_BASELINES_PROBABILISTIC_ATTR_H_

#include <map>

#include "baselines/baseline.h"
#include "eid/correspondence.h"

namespace eid {

/// Options for ProbabilisticAttrMatcher.
struct ProbabilisticAttrOptions {
  /// Comparison value at or above which a pair matches.
  double match_threshold = 1.0;
  /// Below this the pair is a declared non-match.
  double non_match_threshold = 0.5;
  /// Optional per-world-attribute weights; unlisted attributes weigh 1.
  std::map<std::string, double> weights;
  /// Enforce one-to-one matching greedily by decreasing comparison value.
  /// When false, every pair above threshold matches (the raw model — may
  /// violate the uniqueness constraint, which Evaluate() then surfaces).
  bool one_to_one = true;
};

/// Comparison-value matching over all common attributes.
class ProbabilisticAttrMatcher : public BaselineMatcher {
 public:
  ProbabilisticAttrMatcher(AttributeCorrespondence corr,
                           ProbabilisticAttrOptions options = {})
      : corr_(std::move(corr)), options_(options) {}

  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

  /// The normalised comparison value of one pair: weighted fraction of
  /// common attributes whose values agree (NULL on either side contributes
  /// disagreement weight 0 and agreement weight 0 — it is simply skipped,
  /// reducing the effective weight mass).
  Result<double> ComparisonValue(const TupleView& r_tuple,
                                 const TupleView& s_tuple) const;

 private:
  AttributeCorrespondence corr_;
  ProbabilisticAttrOptions options_;
};

}  // namespace eid

#endif  // EID_BASELINES_PROBABILISTIC_ATTR_H_
