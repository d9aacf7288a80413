#include "baselines/probabilistic_attr.h"

#include <algorithm>

namespace eid {

Result<double> ProbabilisticAttrMatcher::ComparisonValue(
    const TupleView& r_tuple, const TupleView& s_tuple) const {
  double agree = 0.0, mass = 0.0;
  for (const std::string& world : corr_.CommonWorldAttributes()) {
    std::optional<std::string> rn = corr_.LocalName(world, Side::kR);
    std::optional<std::string> sn = corr_.LocalName(world, Side::kS);
    EID_CHECK(rn.has_value() && sn.has_value());
    Value rv = r_tuple.GetOrNull(*rn);
    Value sv = s_tuple.GetOrNull(*sn);
    if (rv.is_null() || sv.is_null()) continue;
    double w = 1.0;
    auto it = options_.weights.find(world);
    if (it != options_.weights.end()) w = it->second;
    mass += w;
    if (rv == sv) agree += w;
  }
  if (mass == 0.0) return 0.0;  // nothing comparable: no evidence
  return agree / mass;
}

Result<BaselineResult> ProbabilisticAttrMatcher::Match(
    const Relation& r, const Relation& s) const {
  EID_RETURN_IF_ERROR(corr_.ValidateAgainst(r, s));
  BaselineResult out;
  if (corr_.CommonWorldAttributes().empty()) {
    out.applicability = Status::FailedPrecondition(
        "probabilistic attribute equivalence is not applicable: no common "
        "attributes");
    return out;
  }
  struct Candidate {
    double value;
    size_t i, j;
  };
  std::vector<Candidate> candidates;
  std::vector<TuplePair> non_matches;
  for (size_t i = 0; i < r.size(); ++i) {
    TupleView e1 = r.tuple(i);
    for (size_t j = 0; j < s.size(); ++j) {
      TupleView e2 = s.tuple(j);
      EID_ASSIGN_OR_RETURN(double value, ComparisonValue(e1, e2));
      if (value >= options_.match_threshold) {
        candidates.push_back(Candidate{value, i, j});
      } else if (value < options_.non_match_threshold) {
        non_matches.push_back(TuplePair{i, j});
      }
    }
  }
  out.negative = NegativeTable::FromPairs(std::move(non_matches));
  if (options_.one_to_one) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.value != b.value) return a.value > b.value;
                       if (a.i != b.i) return a.i < b.i;
                       return a.j < b.j;
                     });
    for (const Candidate& c : candidates) {
      if (out.matching.HasR(c.i) || out.matching.HasS(c.j)) continue;
      EID_RETURN_IF_ERROR(out.matching.Add(TuplePair{c.i, c.j}));
    }
  } else {
    for (const Candidate& c : candidates) {
      Status st = out.matching.Add(TuplePair{c.i, c.j});
      if (!st.ok() && out.applicability.ok()) {
        out.applicability = st;  // uniqueness violated by the raw model
      }
    }
  }
  return out;
}

}  // namespace eid
