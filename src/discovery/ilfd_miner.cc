#include "discovery/ilfd_miner.h"

#include <algorithm>
#include <map>
#include <set>

namespace eid {
namespace {

/// Observed consequent values for one antecedent pattern: the candidate
/// survives only if a single non-NULL value was ever observed.
struct Observation {
  Value value;
  size_t support = 0;
  bool contradicted = false;
};

/// Canonical map key for a set of (attr, value) conditions.
std::string PatternKey(const std::vector<Atom>& atoms) {
  std::string key;
  for (const Atom& a : atoms) {
    key += std::to_string(a.attribute.size()) + ":" + a.attribute + "=";
    a.value.AppendFingerprint(&key);
  }
  return key;
}

bool AttrAllowed(const std::vector<std::string>& allowed,
                 const std::string& attr) {
  if (allowed.empty()) return true;
  return std::find(allowed.begin(), allowed.end(), attr) != allowed.end();
}

}  // namespace

std::vector<MinedIlfd> MineIlfds(const Relation& relation,
                                 const MinerOptions& options) {
  const Schema& schema = relation.schema();
  const size_t n = schema.size();

  // Attribute cardinalities (distinct non-NULL values).
  std::vector<size_t> cardinality(n, 0);
  for (size_t a = 0; a < n; ++a) {
    std::set<std::string> values;
    for (const Row& row : relation.rows()) {
      if (row[a].is_null()) continue;
      std::string fp;
      row[a].AppendFingerprint(&fp);
      values.insert(std::move(fp));
    }
    cardinality[a] = values.size();
  }
  auto antecedent_ok = [&](size_t a) {
    return options.max_attribute_cardinality == 0 ||
           cardinality[a] <= options.max_attribute_cardinality;
  };

  // pattern -> (consequent attribute index -> observation).
  // Patterns: all antecedent subsets of size 1..max_antecedent over
  // non-NULL values of each row.
  std::map<std::string, std::map<size_t, Observation>> table;
  std::map<std::string, std::vector<Atom>> pattern_atoms;

  auto observe = [&](const std::vector<Atom>& antecedent, const Row& row) {
    std::string key = PatternKey(antecedent);
    pattern_atoms.emplace(key, antecedent);
    std::map<size_t, Observation>& per_consequent = table[key];
    std::set<std::string> ante_attrs;
    for (const Atom& a : antecedent) ante_attrs.insert(a.attribute);
    for (size_t b = 0; b < schema.size(); ++b) {
      const std::string& battr = schema.attribute(b).name;
      if (ante_attrs.count(battr) > 0) continue;
      if (!AttrAllowed(options.consequent_attributes, battr)) continue;
      if (row[b].is_null()) continue;  // missing: neither support nor refute
      auto [it, inserted] = per_consequent.emplace(
          b, Observation{row[b], 1, false});
      if (!inserted) {
        ++it->second.support;
        if (!(it->second.value == row[b])) it->second.contradicted = true;
      }
    }
  };

  for (const Row& row : relation.rows()) {
    // Size-1 antecedents.
    for (size_t a = 0; a < n; ++a) {
      if (row[a].is_null() || !antecedent_ok(a)) continue;
      observe({Atom{schema.attribute(a).name, row[a]}}, row);
    }
    // Size-2 antecedents (pairs may use high-cardinality attributes, like
    // the paper's (name, street) antecedents of I5/I6).
    if (options.max_antecedent >= 2) {
      for (size_t a = 0; a < n; ++a) {
        if (row[a].is_null()) continue;
        for (size_t b = a + 1; b < n; ++b) {
          if (row[b].is_null()) continue;
          observe({Atom{schema.attribute(a).name, row[a]},
                   Atom{schema.attribute(b).name, row[b]}},
                  row);
        }
      }
    }
  }

  // Emit surviving candidates deterministically (map order is canonical).
  std::vector<MinedIlfd> mined;
  for (const auto& [key, per_consequent] : table) {
    const std::vector<Atom>& antecedent = pattern_atoms.at(key);
    for (const auto& [b, obs] : per_consequent) {
      if (obs.contradicted || obs.support < options.min_support) continue;
      mined.push_back(MinedIlfd{
          Ilfd::Implies(antecedent,
                        Atom{schema.attribute(b).name, obs.value}),
          obs.support});
    }
  }
  std::stable_sort(mined.begin(), mined.end(),
                   [](const MinedIlfd& x, const MinedIlfd& y) {
                     if (x.ilfd.antecedent().size() !=
                         y.ilfd.antecedent().size()) {
                       return x.ilfd.antecedent().size() <
                              y.ilfd.antecedent().size();
                     }
                     return x.ilfd.ToString() < y.ilfd.ToString();
                   });

  if (!options.prune_implied) return mined;

  // Closure-based pruning: accept candidates in order (smaller antecedents
  // first, i.e. more general rules), skipping any already implied.
  std::vector<MinedIlfd> kept;
  IlfdSet accepted;
  for (MinedIlfd& candidate : mined) {
    if (accepted.Implies(candidate.ilfd)) continue;
    accepted.Add(candidate.ilfd);
    kept.push_back(std::move(candidate));
  }
  return kept;
}

IlfdSet MineIlfdSet(const Relation& relation, const MinerOptions& options) {
  IlfdSet out;
  for (MinedIlfd& m : MineIlfds(relation, options)) {
    out.Add(std::move(m.ilfd));
  }
  return out;
}

std::vector<MinedIlfd> ConfirmOn(const std::vector<MinedIlfd>& candidates,
                                 const Relation& witness) {
  std::vector<MinedIlfd> confirmed;
  for (const MinedIlfd& candidate : candidates) {
    bool ok = true;
    for (size_t i = 0; i < witness.size() && ok; ++i) {
      if (!candidate.ilfd.SatisfiedBy(witness.tuple(i))) ok = false;
    }
    if (ok) confirmed.push_back(candidate);
  }
  return confirmed;
}

}  // namespace eid
