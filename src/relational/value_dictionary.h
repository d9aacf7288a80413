// Flat Value -> dense id interner (DESIGN.md §4g).
//
// One dictionary class serves every id-space of the engine: the session
// dictionary of a ColumnarWorld, the per-attribute value index of an
// AtomTable, the derivation memo keys and the snapshot writer. It needs
// only Value, so every layer above relational/ can use it.
//
// Layout: an open-addressing table of power-of-two size whose slots hold
// `id + 1` (0 = empty), probed linearly and kept at most 3/4 full, over
// two id-indexed columns — the values in append-only storage and their
// cached 64-bit ValueHash. A probe compares the cached hash before it
// touches the Value, so a miss on a colliding slot never reads a string
// payload, and growing the table re-places ids from the hash column
// without re-hashing a single value.

#ifndef EID_RELATIONAL_VALUE_DICTIONARY_H_
#define EID_RELATIONAL_VALUE_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "relational/value.h"

namespace eid {

/// Append-only Value -> dense id map with id -> Value and id -> hash
/// reverse lookups. Contracts every consumer relies on:
///
///  * ids are dense from 0 and assigned in first-seen order, so
///    preloading a saved dictionary (snapshot handoff) reproduces the ids
///    a fresh build would assign;
///  * hash(id) == ValueHash{}(value(id)) (derivation programs probe
///    another dictionary with it without re-hashing);
///  * references returned by value() stay valid as the dictionary grows;
///  * GetOrIntern/Reserve/Preload mutate; Find/value/hash do not, so a
///    fully built dictionary may be probed from many threads at once
///    (serial build side, parallel probe side).
///
/// Equality is storage equality (Value::operator==): NULL is a regular
/// internable value, Int(1) and Double(1.0) are distinct. Consumers that
/// need non_null_eq semantics keep NULL out of the dictionary and use
/// kNotInterned as their NULL sentinel (ColumnarWorld::kNullId).
class ValueDictionary {
 public:
  /// Returned by Find for values never interned. A probe-side value that
  /// was never interned cannot equal any build-side value.
  static constexpr uint32_t kNotInterned =
      std::numeric_limits<uint32_t>::max();

  /// Id of `v`, interning it on first use.
  uint32_t GetOrIntern(const Value& v) { return GetOrIntern(v, v.Hash()); }

  /// GetOrIntern with `hash` == ValueHash{}(v) already computed.
  uint32_t GetOrIntern(const Value& v, uint64_t hash) {
    size_t slot = 0;
    const uint32_t id = Probe(v, hash, &slot);
    if (id != kNotInterned) return id;
    return Insert(v, hash, slot);
  }

  /// Id of `v` if already interned, else kNotInterned.
  uint32_t Find(const Value& v) const { return Find(v, v.Hash()); }

  /// Find with `hash` == ValueHash{}(v) already computed — lets a caller
  /// holding another dictionary's cached hash skip hashing the value.
  uint32_t Find(const Value& v, uint64_t hash) const {
    size_t slot = 0;
    return Probe(v, hash, &slot);
  }

  /// Makes room for `n` values in total without further growth. Changes
  /// no id.
  void Reserve(size_t n);

  /// Interns `values` in order (the id-stable snapshot handoff).
  void Preload(const std::vector<Value>& values) {
    Reserve(size() + values.size());
    for (const Value& v : values) GetOrIntern(v);
  }

  /// The value behind an interned id. `id` must be < size().
  const Value& value(uint32_t id) const { return values_[id]; }

  /// ValueHash of value(id), cached at intern time — id columns can be
  /// turned into fingerprint streams without touching string payloads.
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  /// Number of distinct values interned.
  size_t size() const { return hashes_.size(); }

  /// Slot count of the open-addressing table (0 before the first intern).
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kMinCapacity = 16;

  // Fibonacci hashing: the multiply spreads every hash bit into the top
  // bits, which index the table.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Id of `v`, or kNotInterned with `*slot` at the empty slot ending the
  /// probe (meaningless when the table has no slots).
  uint32_t Probe(const Value& v, uint64_t hash, size_t* slot) const {
    if (slots_.empty()) return kNotInterned;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) {
        *slot = i;
        return kNotInterned;
      }
      if (hashes_[s - 1] == hash && values_[s - 1] == v) return s - 1;
    }
  }

  uint32_t Insert(const Value& v, uint64_t hash, size_t slot);
  /// Resizes the slot table to `capacity` (a power of two) and re-places
  /// every id from the hash column.
  void Rehash(size_t capacity);

  std::deque<Value> values_;  // id -> value; deque: references survive growth
  std::vector<uint64_t> hashes_;  // id -> ValueHash
  std::vector<uint32_t> slots_;   // id + 1, 0 = empty
  int shift_ = 64;
};

}  // namespace eid

#endif  // EID_RELATIONAL_VALUE_DICTIONARY_H_
