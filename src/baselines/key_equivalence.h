// Baseline 1 (§2.2): entity identification by key equivalence.
//
// Assumes some candidate key is common to both relations (e.g. Multibase):
// tuples agreeing on that key match. "This approach, however, is limited
// because the relations may have no common key, even though they might
// share some common key attributes" — in that case Match returns a
// FailedPrecondition applicability status (Example 1's scenario).
//
// The unstated soundness assumption the paper highlights: the common key
// must remain a key for the unionised set of real-world entities. When it
// does not (instance-level homonyms, Fig. 2), this baseline silently
// produces unsound matches — the comparison bench measures exactly that.

#ifndef EID_BASELINES_KEY_EQUIVALENCE_H_
#define EID_BASELINES_KEY_EQUIVALENCE_H_

#include "baselines/baseline.h"
#include "eid/correspondence.h"

namespace eid {

/// Options for KeyEquivalenceMatcher.
struct KeyEquivalenceOptions {
  /// Also declare non-matches: pairs disagreeing on the key are reported in
  /// the negative table (complete but only sound if the key is a key of
  /// the integrated world).
  bool declare_non_matches = false;
};

/// Matches on a shared candidate key.
class KeyEquivalenceMatcher : public BaselineMatcher {
 public:
  KeyEquivalenceMatcher(AttributeCorrespondence corr,
                        KeyEquivalenceOptions options = {})
      : corr_(std::move(corr)), options_(options) {}

  /// Fails (applicability) unless some candidate key of R maps, attribute
  /// for attribute, onto a candidate key of S under the correspondence.
  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

 private:
  AttributeCorrespondence corr_;
  KeyEquivalenceOptions options_;
};

}  // namespace eid

#endif  // EID_BASELINES_KEY_EQUIVALENCE_H_
