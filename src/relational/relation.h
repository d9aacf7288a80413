// Relations: named, schema-typed row collections with candidate keys.
//
// Per the paper (§3.1): each relation has one or more candidate keys; each
// tuple models some properties of a unique real-world entity; no two tuples
// of the same relation model the same entity. Candidate-key uniqueness is
// enforced on insertion when keys are declared. If no key is declared, the
// entire attribute set acts as the key (paper, footnote 1).

#ifndef EID_RELATIONAL_RELATION_H_
#define EID_RELATIONAL_RELATION_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace eid {

/// A candidate key: attribute positions within the owning relation's schema.
struct KeyDef {
  std::vector<size_t> attribute_indices;

  bool operator==(const KeyDef& other) const {
    return attribute_indices == other.attribute_indices;
  }
};

/// An in-memory relation instance.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const Row& row(size_t i) const { return rows_[i]; }
  TupleView tuple(size_t i) const { return TupleView(&schema_, &rows_[i]); }
  const std::vector<Row>& rows() const { return rows_; }

  /// Declares a candidate key by attribute names. Keys must be declared
  /// before rows are added (so uniqueness can be enforced incrementally).
  Status DeclareKey(const std::vector<std::string>& attribute_names);

  const std::vector<KeyDef>& keys() const { return keys_; }
  bool has_keys() const { return !keys_.empty(); }

  /// Attribute names of the primary (first-declared) candidate key; the
  /// whole attribute set when no key is declared.
  std::vector<std::string> PrimaryKeyNames() const;
  /// Positions of the primary candidate key.
  std::vector<size_t> PrimaryKeyIndices() const;

  /// Pre-allocates storage for `n` rows (bulk loads, projection loops).
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Inserts a row. Errors: arity/type mismatch, NULL in a key attribute,
  /// or candidate-key uniqueness violation.
  Status Insert(Row row);

  /// Insert's per-row checks without inserting: arity/type mismatch and
  /// NULL in a key attribute, with Insert's codes and messages. Does not
  /// check candidate-key uniqueness.
  Status CheckRow(const Row& row) const;

  /// Bulk-installs rows from a trusted source (snapshot load: the rows
  /// were validated on the Insert path before being saved, and the file
  /// is checksummed). Skips per-row type and key checks; key fingerprint
  /// sets are rebuilt lazily on the next Insert, so a load-then-read
  /// world never pays for them. Replaces any existing rows.
  void AdoptRows(std::vector<Row> rows);

  /// Inserts a row built from display-form strings, parsed per the schema.
  Status InsertText(const std::vector<std::string>& fields);

  /// Key values of row `i` under the primary key.
  Row PrimaryKeyOf(size_t i) const;

  /// True if some row has exactly these values under the primary key.
  bool ContainsKey(const Row& key_values) const;

  /// Index of the row with these primary-key values, if any.
  std::optional<size_t> FindByKey(const Row& key_values) const;

  /// Deterministically sorts rows (lexicographic by value order). Useful
  /// before printing or comparing relations as sets.
  void SortRows();

  /// Set-equality with another relation (same schema, same row multiset).
  bool RowsEqualUnordered(const Relation& other) const;

  /// Verifies every declared candidate key is unique over current rows.
  Status ValidateKeys() const;

 private:
  /// Hash-set entry for enforcing one candidate key.
  std::string KeyFingerprint(const Row& row, const KeyDef& key) const;

  /// Rebuilds key_sets_ from rows_ when AdoptRows marked them stale.
  void EnsureKeySets();

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<KeyDef> keys_;
  // One fingerprint set per declared key, parallel to keys_. Stale after
  // AdoptRows until the next Insert rebuilds them.
  std::vector<std::unordered_set<std::string>> key_sets_;
  bool key_sets_stale_ = false;
};

}  // namespace eid

#endif  // EID_RELATIONAL_RELATION_H_
