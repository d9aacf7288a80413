// Monotonic incremental identification (paper §3.3, Fig. 3).
//
// "An entity-identification technique is monotonic if every pair of tuples
// determined by the technique to be matching/not matching remains so when
// additional information is supplied." As rules and ILFDs are added, the
// matching and non-matching regions may only grow and the undetermined
// region only shrink; completeness is reached when it is empty.
//
// MonotonicEngine wraps an EntityIdentifier over a fixed relation pair,
// re-identifies after every knowledge addition, records the partition
// history (the data behind Fig. 3), and *audits* monotonicity: a previously
// decided pair that changes status is reported — under this library's
// sound rule semantics that indicates contradictory knowledge (e.g. a new
// distinctness rule contradicting an earlier match), which the consistency
// constraint also flags.

#ifndef EID_EID_MONOTONIC_H_
#define EID_EID_MONOTONIC_H_

#include <string>
#include <vector>

#include "eid/identifier.h"

namespace eid {

/// One step of the knowledge-addition history.
struct MonotonicStep {
  std::string description;   // what was added
  PairPartition partition;   // region sizes after the addition
  bool sound = true;         // uniqueness & consistency both held
};

/// Violation of monotonicity detected between two consecutive steps.
struct MonotonicityViolation {
  TuplePair pair;
  MatchDecision before = MatchDecision::kUndetermined;
  MatchDecision after = MatchDecision::kUndetermined;
};

/// Incremental identification over a fixed (R, S) pair.
class MonotonicEngine {
 public:
  /// Copies of the relations are kept; the initial configuration is run
  /// immediately (step "initial").
  MonotonicEngine(Relation r, Relation s, IdentifierConfig config);

  /// The latest identification result. Valid after construction.
  const IdentificationResult& result() const { return result_; }
  const std::vector<MonotonicStep>& history() const { return history_; }
  const std::vector<MonotonicityViolation>& violations() const {
    return violations_;
  }

  /// Knowledge additions. Each re-runs identification, appends a history
  /// step, and audits monotonicity against the previous result.
  Status AddIlfd(const Ilfd& ilfd);
  Status AddIlfdText(const std::string& text);
  Status AddIdentityRule(IdentityRule rule);
  Status AddDistinctnessRule(DistinctnessRule rule);
  /// Sets (or replaces) the extended key.
  Status SetExtendedKey(ExtendedKey key);

  /// True when the undetermined region is empty (completeness, §3.2).
  bool Complete() const { return result_.partition.undetermined == 0; }

 private:
  Status Rerun(const std::string& description);

  Relation r_;
  Relation s_;
  IdentifierConfig config_;
  IdentificationResult result_;
  std::vector<MonotonicStep> history_;
  std::vector<MonotonicityViolation> violations_;
};

}  // namespace eid

#endif  // EID_EID_MONOTONIC_H_
