#include "baselines/baseline.h"

#include <set>

namespace eid {

MatchQuality Evaluate(const BaselineResult& result,
                      const std::vector<TuplePair>& ground_truth,
                      size_t r_size, size_t s_size) {
  MatchQuality q;
  q.total_pairs = r_size * s_size;
  std::set<TuplePair> truth(ground_truth.begin(), ground_truth.end());

  for (const TuplePair& p : result.matching.pairs()) {
    if (truth.count(p) > 0) ++q.true_matches;
    else ++q.false_matches;
  }
  for (const TuplePair& p : truth) {
    if (!result.matching.Contains(p)) ++q.missed_matches;
  }
  for (const TuplePair& p : result.negative.pairs()) {
    if (truth.count(p) > 0) ++q.false_non_matches;
    else ++q.true_non_matches;
  }
  size_t decided = 0;
  for (size_t i = 0; i < r_size; ++i) {
    for (size_t j = 0; j < s_size; ++j) {
      const TuplePair p{i, j};
      if (result.matching.Contains(p) || result.negative.Contains(p)) {
        ++decided;
      }
    }
  }
  q.undetermined = q.total_pairs - decided;
  return q;
}

}  // namespace eid
