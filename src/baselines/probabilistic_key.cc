#include "baselines/probabilistic_key.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace eid {

std::vector<std::string> SplitSubfields(const std::string& text,
                                        bool case_insensitive) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur += case_insensitive
                 ? static_cast<char>(
                       std::tolower(static_cast<unsigned char>(c)))
                 : c;
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

double SubfieldSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::map<std::string, size_t> count_a, count_b;
  for (const std::string& t : a) count_a[t]++;
  for (const std::string& t : b) count_b[t]++;
  size_t intersection = 0, uni = 0;
  for (const auto& [token, ca] : count_a) {
    auto it = count_b.find(token);
    size_t cb = (it == count_b.end()) ? 0 : it->second;
    intersection += std::min(ca, cb);
    uni += std::max(ca, cb);
  }
  for (const auto& [token, cb] : count_b) {
    if (count_a.find(token) == count_a.end()) uni += cb;
  }
  return uni == 0 ? 1.0 : static_cast<double>(intersection) / uni;
}

Result<BaselineResult> ProbabilisticKeyMatcher::Match(
    const Relation& r, const Relation& s) const {
  EID_RETURN_IF_ERROR(corr_.ValidateAgainst(r, s));
  // Common key attributes: world attributes of R's primary key that S's
  // primary key also models (order by R's key).
  std::vector<size_t> r_key = r.PrimaryKeyIndices();
  std::vector<size_t> s_key = s.PrimaryKeyIndices();
  std::vector<std::pair<size_t, size_t>> aligned;
  for (size_t ri : r_key) {
    const std::string& r_local = r.schema().attribute(ri).name;
    for (const AttributeMapping& m : corr_.mappings()) {
      if (!m.in_r.has_value() || *m.in_r != r_local || !m.in_s.has_value()) {
        continue;
      }
      for (size_t si : s_key) {
        if (s.schema().attribute(si).name == *m.in_s) {
          aligned.push_back({ri, si});
        }
      }
    }
  }
  BaselineResult out;
  if (aligned.size() != r_key.size() || aligned.size() != s_key.size()) {
    out.applicability = Status::FailedPrecondition(
        "probabilistic key equivalence is not applicable: no common "
        "candidate key between '" +
        r.name() + "' and '" + s.name() + "'");
    return out;
  }

  // Key text per tuple: concatenated key values.
  auto key_subfields = [&](const Row& row, bool r_side) {
    std::string text;
    for (const auto& [ri, si] : aligned) {
      text += row[r_side ? ri : si].ToString();
      text += ' ';
    }
    return SplitSubfields(text, options_.case_insensitive);
  };
  std::vector<std::vector<std::string>> r_fields, s_fields;
  r_fields.reserve(r.size());
  s_fields.reserve(s.size());
  for (const Row& row : r.rows()) r_fields.push_back(key_subfields(row, true));
  for (const Row& row : s.rows()) s_fields.push_back(key_subfields(row, false));

  // Greedy best-first one-to-one assignment above the match threshold.
  struct Candidate {
    double similarity;
    size_t i, j;
  };
  std::vector<Candidate> candidates;
  std::vector<TuplePair> non_matches;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      double sim = SubfieldSimilarity(r_fields[i], s_fields[j]);
      if (sim >= options_.match_threshold) {
        candidates.push_back(Candidate{sim, i, j});
      } else if (sim < options_.non_match_threshold) {
        non_matches.push_back(TuplePair{i, j});
      }
    }
  }
  out.negative = NegativeTable::FromPairs(std::move(non_matches));
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.similarity != b.similarity) {
                       return a.similarity > b.similarity;
                     }
                     if (a.i != b.i) return a.i < b.i;
                     return a.j < b.j;
                   });
  for (const Candidate& c : candidates) {
    if (out.matching.HasR(c.i) || out.matching.HasS(c.j)) continue;
    EID_RETURN_IF_ERROR(out.matching.Add(TuplePair{c.i, c.j}));
  }
  return out;
}

}  // namespace eid
