#include "relational/relation.h"

#include <algorithm>
#include <map>

namespace eid {

Status Relation::DeclareKey(const std::vector<std::string>& attribute_names) {
  if (!rows_.empty()) {
    return Status::FailedPrecondition(
        "keys must be declared before rows are inserted");
  }
  if (attribute_names.empty()) {
    return Status::InvalidArgument("candidate key must be non-empty");
  }
  KeyDef key;
  for (const std::string& n : attribute_names) {
    EID_ASSIGN_OR_RETURN(size_t i, schema_.RequireIndex(n));
    key.attribute_indices.push_back(i);
  }
  for (const KeyDef& existing : keys_) {
    if (existing == key) {
      return Status::AlreadyExists("candidate key already declared");
    }
  }
  keys_.push_back(std::move(key));
  key_sets_.emplace_back();
  return Status::Ok();
}

std::vector<std::string> Relation::PrimaryKeyNames() const {
  std::vector<std::string> out;
  if (keys_.empty()) {
    for (const Attribute& a : schema_.attributes()) out.push_back(a.name);
    return out;
  }
  for (size_t i : keys_.front().attribute_indices) {
    out.push_back(schema_.attribute(i).name);
  }
  return out;
}

std::vector<size_t> Relation::PrimaryKeyIndices() const {
  if (keys_.empty()) {
    std::vector<size_t> all(schema_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  return keys_.front().attribute_indices;
}

void Relation::AdoptRows(std::vector<Row> rows) {
  rows_ = std::move(rows);
  for (auto& set : key_sets_) set.clear();
  key_sets_stale_ = !keys_.empty();
}

void Relation::EnsureKeySets() {
  if (!key_sets_stale_) return;
  key_sets_stale_ = false;
  for (size_t k = 0; k < keys_.size(); ++k) {
    key_sets_[k].clear();
    key_sets_[k].reserve(rows_.size());
    for (const Row& row : rows_) {
      key_sets_[k].insert(RowFingerprint(row, keys_[k].attribute_indices));
    }
  }
}

Status Relation::CheckRow(const Row& row) const {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.size()) + " for relation '" + name_ + "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;  // NULL allowed in non-key attributes
    if (row[i].type() != schema_.attribute(i).type) {
      return Status::InvalidArgument(
          "type mismatch at attribute '" + schema_.attribute(i).name +
          "': expected " + ValueTypeName(schema_.attribute(i).type) +
          ", got " + ValueTypeName(row[i].type()));
    }
  }
  for (const KeyDef& key : keys_) {
    for (size_t i : key.attribute_indices) {
      if (row[i].is_null()) {
        return Status::ConstraintViolation(
            "NULL in key attribute '" + schema_.attribute(i).name +
            "' of relation '" + name_ + "'");
      }
    }
  }
  return Status::Ok();
}

Status Relation::Insert(Row row) {
  EnsureKeySets();
  EID_RETURN_IF_ERROR(CheckRow(row));
  std::vector<std::string> fingerprints;
  fingerprints.reserve(keys_.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    std::string fp = RowFingerprint(row, keys_[k].attribute_indices);
    if (key_sets_[k].count(fp) > 0) {
      return Status::ConstraintViolation(
          "candidate-key violation in relation '" + name_ +
          "': duplicate key " + TupleView(&schema_, &row).ToString());
    }
    fingerprints.push_back(std::move(fp));
  }
  for (size_t k = 0; k < keys_.size(); ++k) {
    key_sets_[k].insert(std::move(fingerprints[k]));
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

Status Relation::InsertText(const std::vector<std::string>& fields) {
  if (fields.size() != schema_.size()) {
    return Status::InvalidArgument("field count mismatch");
  }
  Row row;
  row.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EID_ASSIGN_OR_RETURN(Value v,
                         Value::Parse(fields[i], schema_.attribute(i).type));
    row.push_back(std::move(v));
  }
  return Insert(std::move(row));
}

Row Relation::PrimaryKeyOf(size_t i) const {
  return ProjectRow(rows_[i], PrimaryKeyIndices());
}

bool Relation::ContainsKey(const Row& key_values) const {
  return FindByKey(key_values).has_value();
}

std::optional<size_t> Relation::FindByKey(const Row& key_values) const {
  std::vector<size_t> key = PrimaryKeyIndices();
  if (key.size() != key_values.size()) return std::nullopt;
  for (size_t r = 0; r < rows_.size(); ++r) {
    bool match = true;
    for (size_t j = 0; j < key.size(); ++j) {
      if (!(rows_[r][key[j]] == key_values[j])) {
        match = false;
        break;
      }
    }
    if (match) return r;
  }
  return std::nullopt;
}

void Relation::SortRows() {
  std::sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  });
}

bool Relation::RowsEqualUnordered(const Relation& other) const {
  if (!(schema_ == other.schema_)) return false;
  if (rows_.size() != other.rows_.size()) return false;
  std::unordered_map<std::string, int> counts;
  std::vector<size_t> all(schema_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const Row& r : rows_) counts[RowFingerprint(r, all)]++;
  for (const Row& r : other.rows_) {
    auto it = counts.find(RowFingerprint(r, all));
    if (it == counts.end() || it->second == 0) return false;
    it->second--;
  }
  return true;
}

Status Relation::ValidateKeys() const {
  for (const KeyDef& key : keys_) {
    std::unordered_set<std::string> seen;
    for (const Row& row : rows_) {
      if (!seen.insert(RowFingerprint(row, key.attribute_indices)).second) {
        return Status::ConstraintViolation(
            "relation '" + name_ + "' violates a declared candidate key");
      }
    }
  }
  return Status::Ok();
}

}  // namespace eid
