// Common interface for the §2.2 baseline entity-identification techniques.
//
// The paper surveys five existing approaches before proposing its own:
//   1. key equivalence (Multibase)           — baselines/key_equivalence.h
//   2. user-specified equivalence (Pegasus)  — baselines/user_specified.h
//   3. probabilistic key equivalence (Pu)    — baselines/probabilistic_key.h
//   4. probabilistic attribute equivalence
//      (Chatterjee & Segev)                  — baselines/probabilistic_attr.h
//   5. heuristic rules (Wang & Madnick)      — baselines/heuristic_rules.h
//
// All implement BaselineMatcher so the benchmark harness can compare them
// (and the paper's ILFD/extended-key technique, adapted via an adapter in
// the bench code) on soundness violations, precision/recall, and
// undetermined rate against generated ground truth.

#ifndef EID_BASELINES_BASELINE_H_
#define EID_BASELINES_BASELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "eid/match_tables.h"
#include "eid/negative.h"

namespace eid {

/// Outcome of a baseline run: claimed matches and claimed non-matches.
/// Pairs in neither set are undetermined.
struct BaselineResult {
  MatchTable matching;
  NegativeTable negative;
  /// Some techniques fail outright in some settings — e.g. key equivalence
  /// without a common key. OK otherwise.
  Status applicability = Status::Ok();
};

/// Interface implemented by every §2.2 technique.
class BaselineMatcher {
 public:
  virtual ~BaselineMatcher() = default;

  /// Decides matches between `r` and `s`.
  virtual Result<BaselineResult> Match(const Relation& r,
                                       const Relation& s) const = 0;
};

/// Quality of a technique against ground truth.
struct MatchQuality {
  size_t true_matches = 0;        // claimed matches that are correct
  size_t false_matches = 0;       // claimed matches that are wrong (unsound!)
  size_t missed_matches = 0;      // true pairs not claimed
  size_t true_non_matches = 0;    // claimed non-matches that are correct
  size_t false_non_matches = 0;   // claimed non-matches that are wrong
  size_t undetermined = 0;        // pairs left undecided
  size_t total_pairs = 0;

  double Precision() const {
    size_t claimed = true_matches + false_matches;
    return claimed == 0 ? 1.0 : static_cast<double>(true_matches) / claimed;
  }
  double Recall() const {
    size_t actual = true_matches + missed_matches;
    return actual == 0 ? 1.0 : static_cast<double>(true_matches) / actual;
  }
  /// Sound = no false claims in either direction (the paper's criterion).
  bool Sound() const { return false_matches == 0 && false_non_matches == 0; }
  double UndeterminedRate() const {
    return total_pairs == 0
               ? 0.0
               : static_cast<double>(undetermined) / total_pairs;
  }
};

/// Scores a result against the ground-truth matching (true pairs).
MatchQuality Evaluate(const BaselineResult& result,
                      const std::vector<TuplePair>& ground_truth,
                      size_t r_size, size_t s_size);

}  // namespace eid

#endif  // EID_BASELINES_BASELINE_H_
