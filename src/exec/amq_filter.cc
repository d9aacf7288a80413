#include "exec/amq_filter.h"

#include <algorithm>
#include <cassert>

namespace eid {
namespace exec {

namespace {

uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

AmqFilter::Level::Level(int buckets_log2)
    : bucket_mask((1u << buckets_log2) - 1),
      slots(static_cast<size_t>(1u << buckets_log2) * 4, 0) {}

AmqFilter::AmqFilter(AmqOptions options)
    : options_(options), kick_state_(0x853C49E6748FEA9Bull) {
  if (options_.fingerprint_bits < 1) options_.fingerprint_bits = 1;
  if (options_.fingerprint_bits > 16) options_.fingerprint_bits = 16;
  if (options_.initial_buckets_log2 < 1) options_.initial_buckets_log2 = 1;
  if (options_.max_level_buckets_log2 < options_.initial_buckets_log2) {
    options_.max_level_buckets_log2 = options_.initial_buckets_log2;
  }
  AddLevel();
}

uint16_t AmqFilter::FingerprintOf(uint64_t key) const {
  // Fingerprint bits are drawn from the top of the mix so they stay
  // independent of the low bits used for bucket indexing.
  uint64_t mixed = Mix64(key * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull);
  uint16_t fp = static_cast<uint16_t>(
      mixed >> (64 - options_.fingerprint_bits));
  // 0 marks an empty slot; remap to keep the no-false-negative contract.
  if (fp == 0) fp = 1;
  return fp;
}

uint32_t AmqFilter::IndexHash(uint64_t key) {
  return static_cast<uint32_t>(Mix64(key));
}

uint32_t AmqFilter::AltIndex(uint32_t index, uint16_t fp, uint32_t mask) {
  // Partial-key cuckoo displacement: the pair {index, index ^ h(fp)} is
  // recoverable from either member, so eviction never needs the full key.
  return (index ^ IndexHash(fp)) & mask;
}

size_t AmqFilter::capacity() const {
  size_t total = 0;
  for (const Level& level : levels_) total += level.slots.size();
  return total;
}

void AmqFilter::AddLevel() {
  int log2 = options_.initial_buckets_log2 + static_cast<int>(levels_.size());
  log2 = std::min(log2, options_.max_level_buckets_log2);
  levels_.emplace_back(log2);
}

bool AmqFilter::TryInsert(Level& level, uint32_t index, uint16_t fp) {
  uint32_t i1 = index & level.bucket_mask;
  uint32_t i2 = AltIndex(i1, fp, level.bucket_mask);
  for (uint32_t bucket : {i1, i2}) {
    uint16_t* b = &level.slots[static_cast<size_t>(bucket) * kBucketWidth];
    for (int s = 0; s < kBucketWidth; ++s) {
      if (b[s] == 0) {
        b[s] = fp;
        ++level.occupied;
        return true;
      }
    }
  }
  // Both buckets full: evict along a bounded chain, remembering every hop.
  // A fingerprint displaced mid-chain belongs to some *other* key whose
  // legal buckets are only known in this level's geometry, so a dead end
  // must unwind the chain rather than carry a foreign fingerprint into a
  // level with a different mask (which would break no-false-negatives).
  struct Hop {
    uint32_t bucket;
    int slot;
  };
  std::vector<Hop> path;
  path.reserve(static_cast<size_t>(options_.max_kicks));
  uint32_t bucket = i1;
  uint16_t carry = fp;
  for (int kick = 0; kick < options_.max_kicks; ++kick) {
    kick_state_ ^= kick_state_ << 13;
    kick_state_ ^= kick_state_ >> 7;
    kick_state_ ^= kick_state_ << 17;
    int victim = static_cast<int>(kick_state_ % kBucketWidth);
    uint16_t* b = &level.slots[static_cast<size_t>(bucket) * kBucketWidth];
    path.push_back(Hop{bucket, victim});
    std::swap(carry, b[victim]);
    bucket = AltIndex(bucket, carry, level.bucket_mask);
    b = &level.slots[static_cast<size_t>(bucket) * kBucketWidth];
    for (int s = 0; s < kBucketWidth; ++s) {
      if (b[s] == 0) {
        b[s] = carry;
        ++level.occupied;
        return true;
      }
    }
  }
  // Dead end: restore every displaced fingerprint to its original slot.
  // `carry` is the original `fp` again afterwards, and the caller places
  // it in a fresh level using the full index hash it still holds.
  for (size_t h = path.size(); h-- > 0;) {
    std::swap(carry,
              level.slots[static_cast<size_t>(path[h].bucket) * kBucketWidth +
                          path[h].slot]);
  }
  assert(carry == fp);
  return false;
}

void AmqFilter::Insert(uint64_t key) {
  uint16_t fp = FingerprintOf(key);
  uint32_t index = IndexHash(key);
  // Prefer the last (largest) level: earlier levels are the ones that
  // already overflowed.
  if (!TryInsert(levels_.back(), index, fp)) {
    AddLevel();
    // A fresh level has both candidate buckets empty, so this cannot fail.
    bool placed = TryInsert(levels_.back(), index, fp);
    assert(placed);
    (void)placed;
  }
  ++size_;
}

bool AmqFilter::Contains(uint64_t key) const {
  uint16_t fp = FingerprintOf(key);
  uint32_t index = IndexHash(key);
  for (const Level& level : levels_) {
    if (level.occupied == 0) continue;
    uint32_t i1 = index & level.bucket_mask;
    uint32_t i2 = AltIndex(i1, fp, level.bucket_mask);
    const uint16_t* b1 = &level.slots[static_cast<size_t>(i1) * kBucketWidth];
    const uint16_t* b2 = &level.slots[static_cast<size_t>(i2) * kBucketWidth];
    for (int s = 0; s < kBucketWidth; ++s) {
      if (b1[s] == fp || b2[s] == fp) return true;
    }
  }
  return false;
}

}  // namespace exec
}  // namespace eid
