// Rows and schema-aware tuple views.

#ifndef EID_RELATIONAL_TUPLE_H_
#define EID_RELATIONAL_TUPLE_H_

#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace eid {

/// A row is a positional list of values; its interpretation is given by a
/// Schema held alongside it (normally by the owning Relation).
using Row = std::vector<Value>;

/// Storage-equality hash over a whole row.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : row) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// A non-owning (schema, row) pair with by-name access. The referenced
/// schema and row must outlive the view.
class TupleView {
 public:
  TupleView(const Schema* schema, const Row* row)
      : schema_(schema), row_(row) {
    EID_CHECK(schema != nullptr && row != nullptr);
    EID_CHECK(schema->size() == row->size());
  }

  const Schema& schema() const { return *schema_; }
  const Row& row() const { return *row_; }
  size_t size() const { return row_->size(); }

  const Value& at(size_t i) const { return (*row_)[i]; }

  /// Value of the named attribute; error when absent.
  Result<Value> Get(const std::string& attribute) const {
    EID_ASSIGN_OR_RETURN(size_t i, schema_->RequireIndex(attribute));
    return (*row_)[i];
  }

  /// Value of the named attribute; NULL when the attribute is absent.
  /// Matches the prototype semantics where an unmodeled property simply
  /// fails to unify and defaults to null.
  Value GetOrNull(const std::string& attribute) const {
    std::optional<size_t> i = schema_->IndexOf(attribute);
    if (!i.has_value()) return Value::Null();
    return (*row_)[*i];
  }

  /// "(a, b, c)" display form. Renders into one buffer: each value
  /// appends in place (Value::AppendTo), so wide rows cost one
  /// amortised-linear build instead of a temporary string per column.
  std::string ToString() const {
    std::string out;
    out.reserve(2 + row_->size() * 8);
    out += '(';
    for (size_t i = 0; i < row_->size(); ++i) {
      if (i > 0) out += ", ";
      (*row_)[i].AppendTo(&out);
    }
    out += ')';
    return out;
  }

 private:
  const Schema* schema_;
  const Row* row_;
};

/// The concatenated Value::AppendFingerprint of `row`'s values at `idx`:
/// the hash-set and join key wherever rows are compared by value.
inline std::string RowFingerprint(const Row& row,
                                  const std::vector<size_t>& idx) {
  std::string fp;
  for (size_t i : idx) row[i].AppendFingerprint(&fp);
  return fp;
}

/// True when any of `row`'s values at `idx` is NULL.
inline bool AnyNull(const Row& row, const std::vector<size_t>& idx) {
  for (size_t i : idx) {
    if (row[i].is_null()) return true;
  }
  return false;
}

/// Projects `row` (described by `schema`) onto attribute positions `idx`.
inline Row ProjectRow(const Row& row, const std::vector<size_t>& idx) {
  Row out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(row[i]);
  return out;
}

}  // namespace eid

#endif  // EID_RELATIONAL_TUPLE_H_
