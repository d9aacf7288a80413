#include "relational/value_dictionary.h"

namespace eid {

namespace {

/// Smallest power-of-two slot count holding `n` values at load <= 3/4.
size_t CapacityFor(size_t n, size_t min_capacity) {
  size_t capacity = min_capacity;
  while (capacity / 4 * 3 < n) capacity *= 2;
  return capacity;
}

}  // namespace

void ValueDictionary::Reserve(size_t n) {
  hashes_.reserve(n);
  if (CapacityFor(n, kMinCapacity) > slots_.size()) {
    Rehash(CapacityFor(n, kMinCapacity));
  }
}

uint32_t ValueDictionary::Insert(const Value& v, uint64_t hash, size_t slot) {
  const uint32_t id = static_cast<uint32_t>(hashes_.size());
  EID_CHECK(id != kNotInterned);
  if (slots_.size() / 4 * 3 < size_t{id} + 1) {
    // Growing moves every slot, so the probe's empty slot is stale: find
    // the new one in the grown table.
    Rehash(CapacityFor(size_t{id} + 1, kMinCapacity));
    const size_t mask = slots_.size() - 1;
    slot = Home(hash);
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
  }
  values_.push_back(v);
  hashes_.push_back(hash);
  slots_[slot] = id + 1;
  return id;
}

void ValueDictionary::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t i = Home(hashes_[id]);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }
}

}  // namespace eid
