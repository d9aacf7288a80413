#include "logic/proposition.h"

#include <algorithm>

namespace eid {

AtomId AtomTable::Intern(const std::string& attribute, const Value& value) {
  auto [it, inserted] = by_attribute_.try_emplace(
      attribute, static_cast<uint32_t>(attributes_.size()));
  if (inserted) attributes_.emplace_back();
  const uint32_t ordinal = it->second;
  AttributeAtoms& attr = attributes_[ordinal];
  const uint32_t i = attr.values.GetOrIntern(value);
  if (i < attr.ids.size()) return attr.ids[i];
  AtomId id = static_cast<AtomId>(atoms_.size());
  atoms_.push_back(Atom{attribute, value});
  attribute_of_.push_back(ordinal);
  attr.ids.push_back(id);
  return id;
}

std::optional<AtomId> AtomTable::Find(const std::string& attribute,
                                      const Value& value) const {
  const AttributeAtoms* attr = AttributeIndex(attribute);
  if (attr == nullptr) return std::nullopt;
  return attr->Find(value);
}

std::optional<uint32_t> AtomTable::FindAttribute(
    const std::string& attribute) const {
  auto it = by_attribute_.find(attribute);
  if (it == by_attribute_.end()) return std::nullopt;
  return it->second;
}

std::vector<AtomId> AtomTable::AtomsForAttribute(
    const std::string& attribute) const {
  const AttributeAtoms* attr = AttributeIndex(attribute);
  return attr != nullptr ? attr->ids : std::vector<AtomId>{};
}

const AtomTable::AttributeAtoms* AtomTable::AttributeIndex(
    const std::string& attribute) const {
  auto it = by_attribute_.find(attribute);
  return it != by_attribute_.end() ? &attributes_[it->second] : nullptr;
}

AtomSet::AtomSet(std::vector<AtomId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

bool AtomSet::Contains(AtomId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool AtomSet::ContainsAll(const AtomSet& other) const {
  return std::includes(ids_.begin(), ids_.end(), other.ids_.begin(),
                       other.ids_.end());
}

bool AtomSet::DisjointFrom(const AtomSet& other) const {
  size_t i = 0, j = 0;
  while (i < ids_.size() && j < other.ids_.size()) {
    if (ids_[i] == other.ids_[j]) return false;
    if (ids_[i] < other.ids_[j]) ++i;
    else ++j;
  }
  return true;
}

void AtomSet::Insert(AtomId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return;
  ids_.insert(it, id);
}

AtomSet AtomSet::UnionWith(const AtomSet& other) const {
  std::vector<AtomId> out;
  out.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out));
  AtomSet result;
  result.ids_ = std::move(out);
  return result;
}

AtomSet AtomSet::IntersectWith(const AtomSet& other) const {
  std::vector<AtomId> out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out));
  AtomSet result;
  result.ids_ = std::move(out);
  return result;
}

AtomSet AtomSet::Minus(const AtomSet& other) const {
  std::vector<AtomId> out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out));
  AtomSet result;
  result.ids_ = std::move(out);
  return result;
}

std::string AtomSet::ToString(const AtomTable& table) const {
  std::string out = "{";
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) out += " ^ ";
    out += table.ToString(ids_[i]);
  }
  out += "}";
  return out;
}

}  // namespace eid
