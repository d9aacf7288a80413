// Snapshot dictionary section: dense first-seen ids, exact round-trips of
// every value type, clean rejection of malformed payloads, and the
// contract the snapshot loader relies on — preloading a ValueInterner
// with the decoded section reproduces the ids the writer assigned.

#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "compile/interner.h"
#include "storage/format.h"

namespace eid {
namespace storage {
namespace {

std::vector<Value> SampleValues() {
  return {Value::Null(),
          Value::Bool(true),
          Value::Bool(false),
          Value::Int(0),
          Value::Int(-12345),
          Value::Int(1LL << 40),
          Value::Double(0.0),
          Value::Double(-2.5),
          Value::Double(1e300),
          Value::String(""),
          Value::String("Kababish"),
          Value::String(std::string(1000, 'x'))};
}

TEST(DictionaryTest, FirstSeenDenseIds) {
  ValueDictionary dict;
  EXPECT_EQ(dict.GetOrIntern(Value::String("a")), 0u);
  EXPECT_EQ(dict.GetOrIntern(Value::String("b")), 1u);
  EXPECT_EQ(dict.GetOrIntern(Value::String("a")), 0u);
  EXPECT_EQ(dict.GetOrIntern(Value::Int(7)), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, RoundTripAllValueTypes) {
  ValueDictionary dict;
  std::vector<Value> values = SampleValues();
  for (const Value& v : values) dict.GetOrIntern(v);
  ByteWriter w;
  AppendDictionary(dict, &w);
  std::string bytes = std::move(w).Take();

  ByteReader in(bytes.data(), bytes.size());
  std::vector<Value> decoded;
  Status st = ParseDictionary(&in, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(decoded[i] == values[i]) << "id " << i;
    EXPECT_EQ(decoded[i].type(), values[i].type()) << "id " << i;
  }
}

TEST(DictionaryTest, ParseRejectsTruncationAtEveryPrefix) {
  ValueDictionary dict;
  for (const Value& v : SampleValues()) dict.GetOrIntern(v);
  ByteWriter w;
  AppendDictionary(dict, &w);
  std::string bytes = std::move(w).Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader in(bytes.data(), len);
    std::vector<Value> decoded;
    EXPECT_FALSE(ParseDictionary(&in, &decoded).ok()) << "prefix " << len;
  }
}

TEST(DictionaryTest, ParseRejectsUnknownTypeTag) {
  ByteWriter w;
  w.PutU32(1);
  w.PutU8(0xEE);  // no such ValueType
  std::string bytes = std::move(w).Take();
  ByteReader in(bytes.data(), bytes.size());
  std::vector<Value> decoded;
  Status st = ParseDictionary(&in, &decoded);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("snapshot corrupt:"), std::string::npos);
}

TEST(DictionaryTest, ParseRejectsOverstatedCount) {
  ByteWriter w;
  w.PutU32(1u << 30);  // claims a billion values in a tiny payload
  std::string bytes = std::move(w).Take();
  ByteReader in(bytes.data(), bytes.size());
  std::vector<Value> decoded;
  EXPECT_FALSE(ParseDictionary(&in, &decoded).ok());
}

TEST(DictionaryTest, InternerPreloadReproducesIds) {
  // The snapshot loader hands the decoded section to a ValueInterner;
  // GetOrIntern afterwards must return exactly the writer's ids, so
  // compiled programs over a loaded world agree with the saved one.
  ValueDictionary dict;
  std::vector<Value> values = SampleValues();
  std::vector<uint32_t> ids;
  for (const Value& v : values) ids.push_back(dict.GetOrIntern(v));
  ByteWriter w;
  AppendDictionary(dict, &w);
  std::string bytes = std::move(w).Take();
  ByteReader in(bytes.data(), bytes.size());
  std::vector<Value> decoded;
  ASSERT_TRUE(ParseDictionary(&in, &decoded).ok());

  compile::ValueInterner interner;
  interner.Preload(decoded);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(interner.GetOrIntern(values[i]), ids[i]) << "value " << i;
  }
  // New values keep extending densely past the preloaded range.
  EXPECT_EQ(interner.GetOrIntern(Value::String("fresh")), dict.size());
}

}  // namespace
}  // namespace storage
}  // namespace eid
