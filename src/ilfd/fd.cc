#include "ilfd/fd.h"

#include <unordered_map>

namespace eid {

std::string Fd::ToString() const {
  auto side = [](const std::set<std::string>& attrs) {
    std::string out = "{";
    bool first = true;
    for (const std::string& a : attrs) {
      if (!first) out += ",";
      first = false;
      out += a;
    }
    out += "}";
    return out;
  };
  return side(lhs) + " -> " + side(rhs);
}

Result<bool> FdHolds(const Relation& relation, const Fd& fd) {
  std::vector<size_t> lhs_idx, rhs_idx;
  for (const std::string& a : fd.lhs) {
    EID_ASSIGN_OR_RETURN(size_t i, relation.schema().RequireIndex(a));
    lhs_idx.push_back(i);
  }
  for (const std::string& a : fd.rhs) {
    EID_ASSIGN_OR_RETURN(size_t i, relation.schema().RequireIndex(a));
    rhs_idx.push_back(i);
  }
  std::unordered_map<std::string, std::string> seen;  // lhs fp -> rhs fp
  for (const Row& row : relation.rows()) {
    std::string l = RowFingerprint(row, lhs_idx);
    std::string r = RowFingerprint(row, rhs_idx);
    auto [it, inserted] = seen.emplace(l, r);
    if (!inserted && it->second != r) return false;
  }
  return true;
}

std::set<std::string> AttributeClosure(const std::set<std::string>& attrs,
                                       const std::vector<Fd>& fds) {
  std::set<std::string> closure = attrs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fd& fd : fds) {
      bool applies = true;
      for (const std::string& a : fd.lhs) {
        if (closure.count(a) == 0) {
          applies = false;
          break;
        }
      }
      if (!applies) continue;
      for (const std::string& a : fd.rhs) {
        if (closure.insert(a).second) changed = true;
      }
    }
  }
  return closure;
}

bool FdImplies(const std::vector<Fd>& fds, const Fd& fd) {
  std::set<std::string> closure = AttributeClosure(fd.lhs, fds);
  for (const std::string& a : fd.rhs) {
    if (closure.count(a) == 0) return false;
  }
  return true;
}

Result<bool> IlfdFamilyCoversFd(const IlfdSet& ilfds, const Relation& relation,
                                const Fd& fd) {
  std::vector<std::string> lhs(fd.lhs.begin(), fd.lhs.end());
  std::vector<size_t> lhs_idx;
  for (const std::string& a : lhs) {
    EID_ASSIGN_OR_RETURN(size_t i, relation.schema().RequireIndex(a));
    lhs_idx.push_back(i);
  }
  // Every lhs-value combination in the active domain must map, via the
  // ILFD closure, to a concrete value of every rhs attribute.
  for (const Row& row : relation.rows()) {
    std::vector<Atom> conditions;
    bool has_null = false;
    for (size_t k = 0; k < lhs.size(); ++k) {
      if (row[lhs_idx[k]].is_null()) {
        has_null = true;
        break;
      }
      conditions.push_back(Atom{lhs[k], row[lhs_idx[k]]});
    }
    if (has_null) continue;  // NULL combinations are outside any domain
    std::vector<Atom> closure = ilfds.ConditionClosure(conditions);
    for (const std::string& b : fd.rhs) {
      bool found = false;
      for (const Atom& atom : closure) {
        if (atom.attribute == b) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace eid
