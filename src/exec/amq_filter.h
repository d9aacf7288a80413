// Dynamic approximate-membership (AMQ) filter for candidate pruning.
//
// The staged candidate generator (exec/candidate_generator.h) wants a
// constant-time "could this attribute-value fingerprint possibly occur in
// that relation?" check that is cheaper than probing a hash index — one
// multiply and two cache lines instead of a bucket chain with Value
// equality compares — and that can keep growing without ever
// rebuilding. This is a partial-key cuckoo filter in the
// dynamic-flat-filter style: fixed-size cuckoo sub-tables chained into
// levels, a full level admitting a fresh one instead of rehashing, so
// Insert/Query stay O(levels) with no stop-the-world growth.
//
// Contract (what correctness rests on): Contains() may return true for a
// key never inserted (false positive — the exact rule evaluation behind
// the filter absorbs those), but never returns false for a key that was
// inserted (no false negatives). The filter is insert-only. It has no
// delete: levels use different bucket masks, so two keys sharing a
// fingerprint can share a bucket in one level and not in another, and
// removing "a copy of key B" could clear key A's only copy.
//
// Determinism: the structure is built serially and probed read-only from
// the parallel sweep, so every reject count derived from it is identical
// for any thread count. Eviction order is driven by a seeded xorshift —
// runs are reproducible.

#ifndef EID_EXEC_AMQ_FILTER_H_
#define EID_EXEC_AMQ_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"

namespace eid {
namespace exec {

/// Tuning knobs. Defaults give a ~3% per-level false-positive rate at a
/// few hundred nanoseconds per op; tests shrink `fingerprint_bits` to
/// force collisions and prove false positives are harmless.
struct AmqOptions {
  /// Bits kept per stored fingerprint, in [1, 16]. Fewer bits = more
  /// false positives, never false negatives.
  int fingerprint_bits = 12;
  /// log2 of the bucket count of the first level; each new level doubles
  /// until `max_level_buckets_log2`.
  int initial_buckets_log2 = 6;
  int max_level_buckets_log2 = 20;
  /// Eviction chain length before giving up and opening a new level.
  int max_kicks = 256;
};

/// A growable cuckoo filter over 64-bit keys (callers pre-hash whatever
/// they store; see FingerprintKey below for the attribute-value form).
/// EID_SHARED_IMMUTABLE: Insert runs only serially (AddRule time in the
/// batch sweep); Contains (const) is what the parallel sweep probes.
class EID_SHARED_IMMUTABLE AmqFilter {
 public:
  explicit AmqFilter(AmqOptions options = {});

  /// Inserts one copy of `key`. Never fails: a level that cannot place
  /// the key after max_kicks evictions pushes the displaced fingerprint
  /// into a fresh level.
  void Insert(uint64_t key);

  /// True when `key` *may* have been inserted (false positives
  /// possible); false only when it never was.
  [[nodiscard]] bool Contains(uint64_t key) const;

  size_t size() const { return size_; }
  size_t levels() const { return levels_.size(); }
  /// Total slots across levels (capacity diagnostics for stats/tests).
  size_t capacity() const;

 private:
  static constexpr int kBucketWidth = 4;  // slots per bucket

  struct Level {
    explicit Level(int buckets_log2);
    uint32_t bucket_mask;                // buckets - 1
    std::vector<uint16_t> slots;         // buckets * kBucketWidth, 0 = empty
    size_t occupied = 0;
  };

  uint16_t FingerprintOf(uint64_t key) const;
  static uint32_t IndexHash(uint64_t key);
  static uint32_t AltIndex(uint32_t index, uint16_t fp, uint32_t mask);

  bool TryInsert(Level& level, uint32_t index, uint16_t fp);
  void AddLevel();

  AmqOptions options_;
  std::vector<Level> levels_;
  size_t size_ = 0;
  uint64_t kick_state_;  // seeded xorshift for eviction choices
};

/// Precomputed AMQ filter contents for the two sides of a pair sweep:
/// per column, the distinct (column, value) fingerprints of the extended
/// relation — exactly what EnsureAmqColumn would compute by scanning the
/// rows. A snapshot ships these (storage/fingerprint_index.h), so a
/// loaded world seeds its filters without re-hashing every Value. The
/// seeded filter holds the same fingerprint *set* as a scan-built one
/// (insertion placement may differ; the no-false-negative contract and
/// therefore the identify output do not).
struct AmqSeeds {
  std::vector<std::vector<uint64_t>> r_columns;
  std::vector<std::vector<uint64_t>> s_columns;
};

/// Fingerprint of an (attribute column, value hash) pair — the key the
/// engine stores per distinct attribute value of a relation. A column is
/// identified by its schema position; `value_hash` is Value::Hash().
inline uint64_t FingerprintKey(size_t column, size_t value_hash) {
  uint64_t h = static_cast<uint64_t>(value_hash) ^
               (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(column + 1));
  // splitmix64 finalizer: decorrelates column and value bits.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_AMQ_FILTER_H_
