#include "eid/extended_key.h"

#include <algorithm>
#include <unordered_set>

namespace eid {

ExtendedKey::ExtendedKey(std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {
  std::sort(attributes_.begin(), attributes_.end());
  attributes_.erase(std::unique(attributes_.begin(), attributes_.end()),
                    attributes_.end());
}

bool ExtendedKey::Contains(const std::string& attribute) const {
  return std::binary_search(attributes_.begin(), attributes_.end(), attribute);
}

IdentityRule ExtendedKey::EquivalenceRule() const {
  return IdentityRule::KeyEquivalence("extended-key-equivalence(" +
                                          ToString() + ")",
                                      attributes_);
}

std::vector<std::string> ExtendedKey::MissingOn(
    const AttributeCorrespondence& corr, Side side) const {
  std::vector<std::string> missing;
  for (const std::string& a : attributes_) {
    if (!corr.LocalName(a, side).has_value()) missing.push_back(a);
  }
  return missing;
}

Result<bool> IsIdentifying(const Relation& universe,
                           const std::vector<std::string>& attributes) {
  std::vector<size_t> idx;
  for (const std::string& a : attributes) {
    EID_ASSIGN_OR_RETURN(size_t i, universe.schema().RequireIndex(a));
    idx.push_back(i);
  }
  std::unordered_set<std::string> seen;
  for (const Row& row : universe.rows()) {
    if (!seen.insert(RowFingerprint(row, idx)).second) return false;
  }
  return true;
}

Status ExtendedKey::VerifyAgainstUniverse(const Relation& universe) const {
  if (attributes_.empty()) {
    return Status::InvalidArgument("extended key must be non-empty");
  }
  EID_ASSIGN_OR_RETURN(bool identifying, IsIdentifying(universe, attributes_));
  if (!identifying) {
    return Status::ConstraintViolation(
        "extended key " + ToString() +
        " does not uniquely identify entities in the universe");
  }
  for (size_t skip = 0; skip < attributes_.size(); ++skip) {
    if (attributes_.size() == 1) break;
    std::vector<std::string> subset;
    for (size_t i = 0; i < attributes_.size(); ++i) {
      if (i != skip) subset.push_back(attributes_[i]);
    }
    EID_ASSIGN_OR_RETURN(bool sub_identifying,
                         IsIdentifying(universe, subset));
    if (sub_identifying) {
      return Status::FailedPrecondition(
          "extended key " + ToString() + " is not minimal: attribute '" +
          attributes_[skip] + "' is redundant");
    }
  }
  return Status::Ok();
}

std::string ExtendedKey::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i];
  }
  out += "}";
  return out;
}

}  // namespace eid
