#include "baselines/key_equivalence.h"

#include <algorithm>
#include <unordered_map>

namespace eid {
namespace {

/// World names of a relation's candidate key, or nullopt when any key
/// attribute has no world mapping.
std::optional<std::vector<std::string>> WorldKey(
    const Relation& rel, const KeyDef& key, const AttributeCorrespondence& corr,
    Side side) {
  std::vector<std::string> world;
  for (size_t i : key.attribute_indices) {
    const std::string& local = rel.schema().attribute(i).name;
    bool found = false;
    for (const AttributeMapping& m : corr.mappings()) {
      const std::optional<std::string>& name =
          (side == Side::kR) ? m.in_r : m.in_s;
      if (name.has_value() && *name == local) {
        world.push_back(m.world);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  std::sort(world.begin(), world.end());
  return world;
}

}  // namespace

Result<BaselineResult> KeyEquivalenceMatcher::Match(const Relation& r,
                                                    const Relation& s) const {
  EID_RETURN_IF_ERROR(corr_.ValidateAgainst(r, s));
  // Find a candidate key of R that corresponds to a candidate key of S.
  std::vector<KeyDef> r_keys = r.keys();
  std::vector<KeyDef> s_keys = s.keys();
  if (r_keys.empty()) {
    KeyDef all;
    for (size_t i = 0; i < r.schema().size(); ++i) {
      all.attribute_indices.push_back(i);
    }
    r_keys.push_back(all);
  }
  if (s_keys.empty()) {
    KeyDef all;
    for (size_t i = 0; i < s.schema().size(); ++i) {
      all.attribute_indices.push_back(i);
    }
    s_keys.push_back(all);
  }

  std::optional<std::pair<KeyDef, KeyDef>> common;
  for (const KeyDef& rk : r_keys) {
    std::optional<std::vector<std::string>> rw =
        WorldKey(r, rk, corr_, Side::kR);
    if (!rw.has_value()) continue;
    for (const KeyDef& sk : s_keys) {
      std::optional<std::vector<std::string>> sw =
          WorldKey(s, sk, corr_, Side::kS);
      if (sw.has_value() && *sw == *rw) {
        common = {rk, sk};
        break;
      }
    }
    if (common.has_value()) break;
  }

  BaselineResult out;
  if (!common.has_value()) {
    out.applicability = Status::FailedPrecondition(
        "key equivalence is not applicable: relations '" + r.name() +
        "' and '" + s.name() + "' share no common candidate key");
    return out;
  }

  // Align S's key attribute order to R's via world names.
  const KeyDef& rk = common->first;
  const KeyDef& sk = common->second;
  std::vector<size_t> s_aligned;
  for (size_t ri : rk.attribute_indices) {
    const std::string& r_local = r.schema().attribute(ri).name;
    std::string world;
    for (const AttributeMapping& m : corr_.mappings()) {
      if (m.in_r.has_value() && *m.in_r == r_local) {
        world = m.world;
        break;
      }
    }
    for (size_t si : sk.attribute_indices) {
      const std::string& s_local = s.schema().attribute(si).name;
      const AttributeMapping* m = nullptr;
      for (const AttributeMapping& cand : corr_.mappings()) {
        if (cand.in_s.has_value() && *cand.in_s == s_local) {
          m = &cand;
          break;
        }
      }
      if (m != nullptr && m->world == world) {
        s_aligned.push_back(si);
        break;
      }
    }
  }
  if (s_aligned.size() != rk.attribute_indices.size()) {
    return Status::Internal("key alignment failed");
  }

  std::unordered_map<std::string, std::vector<size_t>> build;
  for (size_t j = 0; j < s.size(); ++j) {
    const Row& row = s.row(j);
    if (!AnyNull(row, s_aligned)) {
      build[RowFingerprint(row, s_aligned)].push_back(j);
    }
  }
  for (size_t i = 0; i < r.size(); ++i) {
    const Row& row = r.row(i);
    if (AnyNull(row, rk.attribute_indices)) continue;
    auto it = build.find(RowFingerprint(row, rk.attribute_indices));
    if (it == build.end()) continue;
    for (size_t j : it->second) {
      // A candidate key is unique within each relation, so at most one j.
      Status st = out.matching.Add(TuplePair{i, j});
      if (!st.ok()) out.applicability = st;  // homonym blow-up; keep going
    }
  }
  if (options_.declare_non_matches) {
    std::vector<TuplePair> non_matches;
    for (size_t i = 0; i < r.size(); ++i) {
      for (size_t j = 0; j < s.size(); ++j) {
        TuplePair p{i, j};
        if (!out.matching.Contains(p)) non_matches.push_back(p);
      }
    }
    out.negative = NegativeTable::FromPairs(std::move(non_matches));
  }
  return out;
}

}  // namespace eid
