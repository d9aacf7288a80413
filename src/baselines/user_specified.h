// Baseline 2 (§2.2): user-specified equivalence (Pegasus-style).
//
// The user supplies a table mapping local object identifiers to global
// identifiers; tuples sharing a global id match. General — it handles
// synonym and homonym problems — but "the matching table can be very
// large", so the cost is the user's effort: the technique decides nothing
// on its own. Entries are given as (R-key values, S-key values) pairs.

#ifndef EID_BASELINES_USER_SPECIFIED_H_
#define EID_BASELINES_USER_SPECIFIED_H_

#include "baselines/baseline.h"

namespace eid {

/// One user assertion: the R tuple with these key values equals the S
/// tuple with those key values.
struct UserEquivalence {
  Row r_key_values;
  Row s_key_values;
};

/// Matches exactly the user-asserted pairs.
class UserSpecifiedMatcher : public BaselineMatcher {
 public:
  explicit UserSpecifiedMatcher(std::vector<UserEquivalence> assertions)
      : assertions_(std::move(assertions)) {}

  /// Resolves each assertion against the relations' primary keys. An
  /// assertion naming a non-existent tuple is an error (dangling mapping).
  Result<BaselineResult> Match(const Relation& r,
                               const Relation& s) const override;

 private:
  std::vector<UserEquivalence> assertions_;
};

}  // namespace eid

#endif  // EID_BASELINES_USER_SPECIFIED_H_
