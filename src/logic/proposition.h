// Interned propositional atoms.
//
// §5 of the paper reduces ILFD reasoning to propositional logic: each
// boolean condition `(A = a)` over an entity attribute becomes a
// propositional symbol. AtomTable interns (attribute, value) pairs to dense
// 32-bit ids so that closure computation and clause indexing are array-based.

#ifndef EID_LOGIC_PROPOSITION_H_
#define EID_LOGIC_PROPOSITION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/status.h"
#include "relational/value.h"
#include "relational/value_dictionary.h"

namespace eid {

/// Dense id of an interned propositional atom.
using AtomId = uint32_t;

/// One propositional symbol: the condition `attribute = value`.
struct Atom {
  std::string attribute;
  Value value;

  bool operator==(const Atom& other) const {
    return attribute == other.attribute && value == other.value;
  }

  /// "cuisine=Chinese" display form.
  std::string ToString() const { return attribute + "=" + value.ToString(); }
};

/// Bidirectional mapping Atom <-> AtomId. Append-only; ids are stable for
/// the table's lifetime.
class AtomTable {
 public:
  /// The atoms of one attribute, maintained incrementally by Intern: ids in
  /// ascending order, plus the attribute's values interned in the same
  /// order, so ids[values.Find(v)] is the atom `attribute = v`. References
  /// stay valid until the table is destroyed (append-only).
  struct AttributeAtoms {
    std::vector<AtomId> ids;
    ValueDictionary values;

    /// The atom `attribute = v`, or nullopt.
    std::optional<AtomId> Find(const Value& v) const {
      const uint32_t i = values.Find(v);
      if (i == ValueDictionary::kNotInterned) return std::nullopt;
      return ids[i];
    }
  };

  AtomTable() = default;

  /// Id of the atom, interning it on first use.
  AtomId Intern(const std::string& attribute, const Value& value);
  AtomId Intern(const Atom& atom) { return Intern(atom.attribute, atom.value); }

  /// Id of the atom if already interned.
  std::optional<AtomId> Find(const std::string& attribute,
                             const Value& value) const;

  size_t size() const { return atoms_.size(); }
  const Atom& atom(AtomId id) const {
    EID_CHECK(id < atoms_.size());
    return atoms_[id];
  }
  std::string ToString(AtomId id) const { return atom(id).ToString(); }

  /// Dense ordinal of the atom's attribute: attributes are numbered in
  /// the order their first atom was interned. Lets compiled programs key
  /// per-attribute state by array index instead of by attribute string.
  uint32_t attribute_ordinal(AtomId id) const {
    EID_CHECK(id < attribute_of_.size());
    return attribute_of_[id];
  }
  /// Number of distinct attributes (one past the largest ordinal).
  size_t attribute_count() const { return attributes_.size(); }
  /// Ordinal of `attribute`, or nullopt if no atom uses it.
  std::optional<uint32_t> FindAttribute(const std::string& attribute) const;
  /// Name of the attribute numbered `ordinal` (< attribute_count()).
  const std::string& attribute_name(uint32_t ordinal) const {
    EID_CHECK(ordinal < attributes_.size());
    return atoms_[attributes_[ordinal].ids.front()].attribute;
  }

  /// All interned atoms whose attribute equals `attribute`.
  std::vector<AtomId> AtomsForAttribute(const std::string& attribute) const;

  /// The attribute's atom index, or nullptr if no atom uses it. Lets
  /// compiled programs borrow the per-attribute seed indexes instead of
  /// rebuilding them per session (compile/derivation_program.cc).
  const AttributeAtoms* AttributeIndex(const std::string& attribute) const;

 private:
  // Lookup goes through by_attribute_: an attribute-string probe, then a
  // flat ValueDictionary probe — no composite key is materialised per
  // Intern (the IlfdSet construction behind snapshot loads interns
  // hundreds of thousands of atoms; a string build per probe dominated
  // that path).
  std::vector<Atom> atoms_;
  std::vector<uint32_t> attribute_of_;  // AtomId -> attribute ordinal
  // By ordinal; a deque so AttributeIndex pointers survive growth.
  std::deque<AttributeAtoms> attributes_;
  std::unordered_map<std::string, uint32_t> by_attribute_;  // -> ordinal
};

/// A sorted, duplicate-free set of atom ids (conjunction of symbols).
/// Kept as a value type: cheap to copy at the sizes ILFD reasoning uses.
class AtomSet {
 public:
  AtomSet() = default;
  explicit AtomSet(std::vector<AtomId> ids);

  static AtomSet Of(std::initializer_list<AtomId> ids) {
    return AtomSet(std::vector<AtomId>(ids));
  }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const std::vector<AtomId>& ids() const { return ids_; }

  bool Contains(AtomId id) const;
  bool ContainsAll(const AtomSet& other) const;
  /// True if the sets share no atom.
  bool DisjointFrom(const AtomSet& other) const;

  void Insert(AtomId id);
  AtomSet UnionWith(const AtomSet& other) const;
  AtomSet IntersectWith(const AtomSet& other) const;
  AtomSet Minus(const AtomSet& other) const;

  bool operator==(const AtomSet& other) const { return ids_ == other.ids_; }
  bool operator<(const AtomSet& other) const { return ids_ < other.ids_; }

  /// "{a=1 ^ b=2}" display form.
  std::string ToString(const AtomTable& table) const;

 private:
  std::vector<AtomId> ids_;  // sorted, unique
};

}  // namespace eid

#endif  // EID_LOGIC_PROPOSITION_H_
