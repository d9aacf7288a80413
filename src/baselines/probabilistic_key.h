// Baseline 3 (§2.2): probabilistic key equivalence (Pu 1991).
//
// Instead of insisting on full key equivalence, match on a *portion* of
// the key values: key strings are split into subfields (whitespace and
// punctuation), and two keys are considered identical when the fraction of
// agreeing subfields reaches a threshold (the name-matching problem). "The
// probabilistic nature of matching may also admit erroneous matching" —
// and it still requires a common key between the relations.

#ifndef EID_BASELINES_PROBABILISTIC_KEY_H_
#define EID_BASELINES_PROBABILISTIC_KEY_H_

#include "baselines/baseline.h"
#include "eid/correspondence.h"

namespace eid {

/// Options for ProbabilisticKeyMatcher.
struct ProbabilisticKeyOptions {
  /// Minimum Jaccard similarity of the key subfield sets to declare a
  /// match (1.0 degenerates to exact key equivalence).
  double match_threshold = 0.75;
  /// Below this similarity the pair is declared a non-match; between the
  /// thresholds it stays undetermined.
  double non_match_threshold = 0.25;
  /// Case-insensitive subfield comparison.
  bool case_insensitive = true;
};

/// Splits a string into subfields: maximal runs of alphanumerics.
std::vector<std::string> SplitSubfields(const std::string& text,
                                        bool case_insensitive);

/// Jaccard similarity of two subfield multisets.
double SubfieldSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Approximate matching over a common key's subfields.
class ProbabilisticKeyMatcher : public BaselineMatcher {
 public:
  ProbabilisticKeyMatcher(AttributeCorrespondence corr,
                          ProbabilisticKeyOptions options = {})
      : corr_(std::move(corr)), options_(options) {}

  /// Like key equivalence, fails when no common candidate key exists.
  /// Otherwise compares every pair's key subfields. Greedy one-to-one
  /// assignment: each tuple matches its best counterpart above threshold,
  /// ties broken by lowest index.
  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

 private:
  AttributeCorrespondence corr_;
  ProbabilisticKeyOptions options_;
};

}  // namespace eid

#endif  // EID_BASELINES_PROBABILISTIC_KEY_H_
