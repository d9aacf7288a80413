// The AMQ pre-filter carries one load-bearing guarantee: no false
// negatives — an inserted key is always reported as possibly present,
// through level growth and eviction dead-ends. These tests shrink the
// levels and kick budget far below the defaults to force the
// chained-level growth path on every few inserts, where a lost
// fingerprint (e.g. an unwound eviction chain bug) would surface
// immediately.

#include "exec/amq_filter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace eid {
namespace exec {
namespace {

/// Deterministic well-mixed keys in the shape the engine stores:
/// (column, value-hash) fingerprints.
uint64_t Key(size_t i) {
  return FingerprintKey(i % 13, i * 0x9E3779B97F4A7C15ull + 1);
}

TEST(AmqFilterTest, InsertContains) {
  AmqFilter filter;
  EXPECT_FALSE(filter.Contains(Key(1)));
  filter.Insert(Key(1));
  EXPECT_TRUE(filter.Contains(Key(1)));
  EXPECT_EQ(filter.size(), 1u);
}

TEST(AmqFilterTest, NoFalseNegativesUnderGrowth) {
  AmqOptions tiny;
  tiny.fingerprint_bits = 4;
  tiny.initial_buckets_log2 = 1;
  tiny.max_level_buckets_log2 = 3;
  tiny.max_kicks = 2;
  AmqFilter filter(tiny);
  const size_t n = 4096;
  for (size_t i = 0; i < n; ++i) filter.Insert(Key(i));
  EXPECT_EQ(filter.size(), n);
  // 8-slot levels capped at 32 slots: thousands of keys means the filter
  // grew through many chained levels rather than rebuilding.
  EXPECT_GT(filter.levels(), 8u);
  EXPECT_GE(filter.capacity(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(filter.Contains(Key(i))) << "lost key " << i;
  }
}

TEST(AmqFilterTest, EvictionDeadEndsNeverLoseKeys) {
  // Two-bit fingerprints collide constantly and a kick budget of 3 makes
  // almost every insert hit an eviction dead-end; the displaced
  // fingerprint must be restored before the original moves to a fresh
  // level, so every previously inserted key stays visible after every
  // single insert.
  AmqOptions tiny;
  tiny.fingerprint_bits = 2;
  tiny.initial_buckets_log2 = 1;
  tiny.max_level_buckets_log2 = 2;
  tiny.max_kicks = 3;
  AmqFilter filter(tiny);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < 512; ++i) {
    keys.push_back(Key(i));
    filter.Insert(keys.back());
    for (size_t k = 0; k < keys.size(); ++k) {
      ASSERT_TRUE(filter.Contains(keys[k]))
          << "insert " << i << " lost key " << k;
    }
  }
}

TEST(AmqFilterTest, CapacityGrowsWithoutInvalidatingOldKeys) {
  AmqOptions tiny;
  tiny.initial_buckets_log2 = 2;
  tiny.max_level_buckets_log2 = 4;
  AmqFilter filter(tiny);
  const size_t initial_capacity = filter.capacity();
  size_t last_levels = filter.levels();
  for (size_t i = 0; i < 2048; ++i) {
    filter.Insert(Key(i));
    // Levels only ever accrete; a shrink would mean a rebuild happened.
    ASSERT_GE(filter.levels(), last_levels);
    last_levels = filter.levels();
  }
  EXPECT_GT(filter.capacity(), initial_capacity);
  for (size_t i = 0; i < 2048; ++i) {
    EXPECT_TRUE(filter.Contains(Key(i))) << i;
  }
}

}  // namespace
}  // namespace exec
}  // namespace eid
