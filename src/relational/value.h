// Typed attribute values with SQL-style NULL.
//
// The entity-identification pipeline of Lim et al. manipulates attribute
// values from autonomous databases; missing extended-key attributes are
// represented as NULL (paper §6.2). Two equality notions coexist:
//
//  * Value::operator== — *storage* equality: NULL == NULL, and doubles
//    are equal iff their bit patterns are (so +0.0 != -0.0, and a NaN
//    equals a NaN with the same bits), which is what Hash and the key
//    fingerprints read. Used for deduplication, hashing and set
//    semantics inside the relational substrate.
//  * NonNullEq()       — *matching* equality: NULL equals nothing, not even
//    NULL. This is the prototype's `non_null_eq` predicate and the equality
//    used when joining extended keys to build the matching table.

#ifndef EID_RELATIONAL_VALUE_H_
#define EID_RELATIONAL_VALUE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

#include "relational/status.h"

namespace eid {

/// Runtime type tag of a Value.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
};

/// Name of a ValueType ("null", "bool", "int", "double", "string").
const char* ValueTypeName(ValueType type);

/// A dynamically typed attribute value. Small, copyable, hashable.
class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Data(b)); }
  static Value Int(int64_t i) { return Value(Data(i)); }
  static Value Double(double d) { return Value(Data(d)); }
  static Value String(std::string s) { return Value(Data(std::move(s))); }
  /// Convenience: string value from a C literal.
  static Value Str(const char* s) { return String(std::string(s)); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors. Precondition: the Value holds that type.
  bool AsBool() const { return Get<bool>(); }
  int64_t AsInt() const { return Get<int64_t>(); }
  double AsDouble() const { return Get<double>(); }
  const std::string& AsString() const { return Get<std::string>(); }

  /// Numeric view: int promoted to double. Precondition: kInt or kDouble.
  double AsNumeric() const;

  /// Storage equality: same type and same payload; NULL == NULL; doubles
  /// by bit pattern.
  bool operator==(const Value& other) const {
    if (data_.index() != other.data_.index()) return false;
    return std::visit(
        [&other](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          const T& b = *std::get_if<T>(&other.data_);
          if constexpr (std::is_same_v<T, double>) {
            return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
          } else {
            return a == b;
          }
        },
        data_);
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for sorting: NULL < bool < int/double (numeric order,
  /// cross-type) < string. A strict weak ordering whose equivalence is
  /// operator==: numeric ties put an int before a double and -0.0 before
  /// +0.0, and NaNs sort after every number, by bit pattern.
  /// Deterministic across runs.
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  /// Stable hash (FNV-1a based), consistent with operator==.
  size_t Hash() const;

  /// Display form: NULL prints as "null" (matching the prototype output);
  /// strings print verbatim (no quotes).
  std::string ToString() const;

  /// Appends the display form to `out` without materialising a temporary
  /// string per value — use when rendering many values into one buffer
  /// (TupleView::ToString).
  void AppendTo(std::string* out) const;

  /// Appends the equality fingerprint "<len>:<payload>|<type digit>" to
  /// `out`: the payload is the display form, except for a double, whose
  /// payload is its 8-byte bit pattern (display rounds to 6 significant
  /// digits, which would equate distinct doubles). Fingerprints are
  /// length-prefixed, so concatenations of them are unambiguous.
  void AppendFingerprint(std::string* out) const;

  /// Parses a display-form string back into a Value of the requested type.
  static Result<Value> Parse(const std::string& text, ValueType type);

 private:
  using Data = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Data data) : data_(std::move(data)) {}

  template <typename T>
  const T& Get() const {
    const T* p = std::get_if<T>(&data_);
    EID_CHECK(p != nullptr && "Value type mismatch");
    return *p;
  }

  Data data_;
};

/// Matching equality (the prototype's `non_null_eq`): true iff both values
/// are non-NULL and storage-equal. NULL never matches anything.
inline bool NonNullEq(const Value& a, const Value& b) {
  return !a.is_null() && !b.is_null() && a == b;
}

/// Hasher for use in unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace eid

#endif  // EID_RELATIONAL_VALUE_H_
