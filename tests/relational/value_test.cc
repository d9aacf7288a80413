#include "relational/value.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "relational/value_dictionary.h"

#include "../test_util.h"

namespace eid {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, TypedConstructionAndAccess) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("abc").AsString(), "abc");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_FALSE(Value::Bool(false).AsBool());
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Int(1).type(), ValueType::kInt);
  EXPECT_EQ(Value::Double(1).type(), ValueType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
}

TEST(ValueTest, StorageEqualityNullEqualsNull) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
  EXPECT_NE(Value::Null(), Value::Str(""));
}

TEST(ValueTest, EqualityIsTypeSensitive) {
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_NE(Value::Str("1"), Value::Int(1));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
}

TEST(ValueTest, NonNullEqRejectsNulls) {
  EXPECT_FALSE(NonNullEq(Value::Null(), Value::Null()));
  EXPECT_FALSE(NonNullEq(Value::Null(), Value::Int(1)));
  EXPECT_FALSE(NonNullEq(Value::Int(1), Value::Null()));
  EXPECT_TRUE(NonNullEq(Value::Int(1), Value::Int(1)));
  EXPECT_FALSE(NonNullEq(Value::Int(1), Value::Int(2)));
}

TEST(ValueTest, OrderingAcrossTypes) {
  // NULL < bool < numeric < string.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::Str(""));
}

TEST(ValueTest, NumericOrderingMixesIntAndDouble) {
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Double(0.5), Value::Int(1));
  EXPECT_LT(Value::Int(1), Value::Double(1.0));  // tie-break: int < double
  EXPECT_FALSE(Value::Double(1.0) < Value::Int(1));
}

TEST(ValueTest, OrderingIsTotalAndConsistentWithEquality) {
  std::vector<Value> values = {
      Value::Null(),    Value::Bool(false), Value::Bool(true),
      Value::Int(-3),   Value::Int(7),      Value::Double(-3.0),
      Value::Double(7.5), Value::Str(""),   Value::Str("abc"),
      Value::Str("abd")};
  for (const Value& a : values) {
    EXPECT_FALSE(a < a) << a.ToString();
    for (const Value& b : values) {
      if (a == b) continue;
      EXPECT_TRUE((a < b) != (b < a))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, DoublesCompareByBitPattern) {
  // One notion of double equality everywhere: bits, as Hash and the key
  // fingerprints read them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Value::Double(0.0), Value::Double(-0.0));
  EXPECT_EQ(Value::Double(nan), Value::Double(nan));
  EXPECT_NE(Value::Double(nan), Value::Double(-nan));  // sign bit differs
  EXPECT_NE(Value::Double(0.0), Value::Int(0));
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(nan).Hash());
  std::string a, b;
  Value::Double(nan).AppendFingerprint(&a);
  Value::Double(nan).AppendFingerprint(&b);
  EXPECT_EQ(a, b);
}

TEST(ValueTest, OrderingWithSignedZerosAndNaNsIsStrictWeak) {
  // std::sort needs a strict weak ordering; its equivalence must be
  // operator==, so sorting and deduplicating agree.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;  // big + 1 rounds to big as double
  std::vector<Value> values = {
      Value::Double(nan),        Value::Double(-nan),
      Value::Double(0.0),        Value::Double(-0.0),
      Value::Int(0),             Value::Int(-1),
      Value::Double(-1.0),       Value::Double(1.5),
      Value::Int(big),           Value::Int(big + 1),
      Value::Double(static_cast<double>(big)),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Null(),             Value::Str("x")};
  for (const Value& a : values) {
    EXPECT_FALSE(a < a) << a.ToString();
    for (const Value& b : values) {
      const bool equivalent = !(a < b) && !(b < a);
      EXPECT_EQ(equivalent, a == b) << a.ToString() << " vs " << b.ToString();
      for (const Value& c : values) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c) << a.ToString() << " < " << b.ToString()
                             << " < " << c.ToString();
        }
      }
    }
  }
  EXPECT_LT(Value::Double(-0.0), Value::Double(0.0));
  EXPECT_LT(Value::Double(std::numeric_limits<double>::infinity()),
            Value::Double(nan));
  EXPECT_LT(Value::Int(big), Value::Int(big + 1));
}

TEST(ValueTest, LessEqualAndGreaterAgreeWithLess) {
  // operator<= and operator> are the complement and the converse of
  // operator<, across its strict-weak-order edge cases: int/double ties,
  // signed zeros, NaNs, NULL and values of different types.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Null(),        Value::Bool(false),   Value::Bool(true),
      Value::Int(1),        Value::Double(1.0),   Value::Int(0),
      Value::Double(0.0),   Value::Double(-0.0),  Value::Double(nan),
      Value::Double(-nan),  Value::Str(""),       Value::Str("1")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a <= b, !(b < a)) << a.ToString() << " <= " << b.ToString();
      EXPECT_EQ(a > b, b < a) << a.ToString() << " > " << b.ToString();
    }
  }
  // Ties order int before double, -0.0 before +0.0, numbers before NaN.
  EXPECT_TRUE(Value::Int(1) <= Value::Double(1.0));
  EXPECT_FALSE(Value::Int(1) > Value::Double(1.0));
  EXPECT_TRUE(Value::Double(1.0) > Value::Int(1));
  EXPECT_FALSE(Value::Double(1.0) <= Value::Int(1));
  EXPECT_TRUE(Value::Double(0.0) > Value::Double(-0.0));
  EXPECT_FALSE(Value::Double(0.0) <= Value::Double(-0.0));
  EXPECT_TRUE(Value::Double(nan) > Value::Double(1e308));
  EXPECT_TRUE(Value::Double(nan) <= Value::Double(nan));
  EXPECT_FALSE(Value::Double(nan) > Value::Double(nan));
  // NULL sorts first and is <= itself; types order NULL, bool, number,
  // string.
  EXPECT_TRUE(Value::Null() <= Value::Null());
  EXPECT_FALSE(Value::Null() > Value::Null());
  EXPECT_TRUE(Value::Bool(false) > Value::Null());
  EXPECT_TRUE(Value::Int(0) > Value::Bool(true));
  EXPECT_TRUE(Value::Str("") > Value::Double(nan));
  EXPECT_FALSE(Value::Str("1") <= Value::Int(1));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
  // Distinct types hash apart even with "equal" payloads (not guaranteed in
  // general, but these specific pairs must differ for fingerprinting).
  EXPECT_NE(Value::Int(1).Hash(), Value::Bool(true).Hash());
  EXPECT_NE(Value::Str("1").Hash(), Value::Int(1).Hash());
}

TEST(ValueTest, HashSpreadsValues) {
  std::unordered_set<size_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.insert(Value::Int(i).Hash());
  EXPECT_GT(hashes.size(), 990u);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::Str("hello").ToString(), "hello");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
}

TEST(ValueTest, ParseInt) {
  EID_ASSERT_OK_AND_ASSIGN(Value v, Value::Parse("123", ValueType::kInt));
  EXPECT_EQ(v.AsInt(), 123);
  EXPECT_FALSE(Value::Parse("12x", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("", ValueType::kInt).ok());
}

TEST(ValueTest, ParseDouble) {
  EID_ASSERT_OK_AND_ASSIGN(Value v, Value::Parse("-2.5", ValueType::kDouble));
  EXPECT_EQ(v.AsDouble(), -2.5);
  EXPECT_FALSE(Value::Parse("abc", ValueType::kDouble).ok());
}

TEST(ValueTest, ParseBool) {
  EID_ASSERT_OK_AND_ASSIGN(Value t, Value::Parse("true", ValueType::kBool));
  EXPECT_TRUE(t.AsBool());
  EID_ASSERT_OK_AND_ASSIGN(Value f, Value::Parse("0", ValueType::kBool));
  EXPECT_FALSE(f.AsBool());
  EXPECT_FALSE(Value::Parse("yes", ValueType::kBool).ok());
}

TEST(ValueTest, ParseStringTreatsNullLiteral) {
  EID_ASSERT_OK_AND_ASSIGN(Value v, Value::Parse("null", ValueType::kString));
  EXPECT_TRUE(v.is_null());
  EID_ASSERT_OK_AND_ASSIGN(Value w, Value::Parse("abc", ValueType::kString));
  EXPECT_EQ(w.AsString(), "abc");
}

TEST(ValueTest, AsNumericPromotesInt) {
  EXPECT_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_EQ(Value::Double(3.5).AsNumeric(), 3.5);
}

// --- ValueDictionary ------------------------------------------------------

std::vector<Value> ManyValues(size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0:
        out.push_back(Value::Int(static_cast<int64_t>(i)));
        break;
      case 1:
        out.push_back(Value::Double(static_cast<double>(i) + 0.5));
        break;
      default:
        out.push_back(Value::String("v" + std::to_string(i)));
        break;
    }
  }
  return out;
}

TEST(ValueDictionaryTest, DenseFirstSeenIdsAcrossGrowth) {
  ValueDictionary dict;
  const std::vector<Value> values = ManyValues(5000);
  size_t growths = 0;
  size_t capacity = dict.capacity();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.GetOrIntern(values[i]), i);
    // Re-interning an earlier value returns its id, never a new one.
    EXPECT_EQ(dict.GetOrIntern(values[i / 2]), i / 2);
    if (dict.capacity() != capacity) ++growths;
    capacity = dict.capacity();
  }
  EXPECT_EQ(dict.size(), values.size());
  EXPECT_GE(growths, 8u);
  EXPECT_LE(dict.size() * 4, dict.capacity() * 3);  // load <= 3/4
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.Find(values[i]), i);
    EXPECT_EQ(dict.value(static_cast<uint32_t>(i)), values[i]);
  }
}

TEST(ValueDictionaryTest, HashIsValueHash) {
  ValueDictionary dict;
  for (const Value& v : ManyValues(300)) dict.GetOrIntern(v);
  dict.GetOrIntern(Value::Null());
  dict.GetOrIntern(Value::Bool(true));
  for (uint32_t id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(dict.hash(id), ValueHash{}(dict.value(id))) << "id " << id;
  }
}

TEST(ValueDictionaryTest, ValueReferencesSurviveGrowth) {
  ValueDictionary dict;
  dict.GetOrIntern(Value::Str("first"));
  dict.GetOrIntern(Value::Int(2));
  const Value* first = &dict.value(0);
  const Value* second = &dict.value(1);
  for (const Value& v : ManyValues(10000)) dict.GetOrIntern(v);
  EXPECT_EQ(first, &dict.value(0));
  EXPECT_EQ(second, &dict.value(1));
  EXPECT_EQ(*first, Value::Str("first"));
  EXPECT_EQ(*second, Value::Int(2));
}

TEST(ValueDictionaryTest, FindAndPrehashedFindAgree) {
  ValueDictionary dict;
  const std::vector<Value> values = ManyValues(1000);
  for (size_t i = 0; i < values.size(); i += 2) dict.GetOrIntern(values[i]);
  for (size_t i = 0; i < values.size(); ++i) {
    const uint32_t plain = dict.Find(values[i]);
    EXPECT_EQ(plain, dict.Find(values[i], ValueHash{}(values[i])));
    EXPECT_EQ(plain, i % 2 == 0 ? i / 2 : ValueDictionary::kNotInterned);
  }
  ValueDictionary empty;
  EXPECT_EQ(empty.Find(Value::Int(1)), ValueDictionary::kNotInterned);
  EXPECT_EQ(empty.Find(Value::Int(1), ValueHash{}(Value::Int(1))),
            ValueDictionary::kNotInterned);
}

TEST(ValueDictionaryTest, StorageEquality) {
  ValueDictionary dict;
  const uint32_t null_id = dict.GetOrIntern(Value::Null());
  EXPECT_EQ(dict.GetOrIntern(Value::Null()), null_id);
  EXPECT_TRUE(dict.value(null_id).is_null());
  const uint32_t int_id = dict.GetOrIntern(Value::Int(1));
  const uint32_t double_id = dict.GetOrIntern(Value::Double(1.0));
  EXPECT_NE(int_id, double_id);
  const std::string text = "Kababish";
  EXPECT_EQ(dict.GetOrIntern(Value::String(text)),
            dict.GetOrIntern(Value::String(std::string(text))));
  EXPECT_EQ(dict.size(), 4u);
}

TEST(ValueDictionaryTest, InternsDoublesByBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ValueDictionary dict;
  const uint32_t nan_id = dict.GetOrIntern(Value::Double(nan));
  EXPECT_EQ(dict.GetOrIntern(Value::Double(nan)), nan_id);
  EXPECT_EQ(dict.Find(Value::Double(nan)), nan_id);
  const uint32_t zero_id = dict.GetOrIntern(Value::Double(0.0));
  EXPECT_NE(dict.GetOrIntern(Value::Double(-0.0)), zero_id);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(ValueDictionaryTest, ReserveChangesNoId) {
  const std::vector<Value> values = ManyValues(2000);
  ValueDictionary dict;
  for (size_t i = 0; i < 100; ++i) dict.GetOrIntern(values[i]);
  dict.Reserve(50000);
  EXPECT_GE(dict.capacity() * 3, 50000u * 4);
  EXPECT_EQ(dict.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(dict.Find(values[i]), i);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.GetOrIntern(values[i]), i);
  }
  const size_t capacity = dict.capacity();
  dict.Reserve(10);  // never shrinks
  EXPECT_EQ(dict.capacity(), capacity);
}

TEST(ValueDictionaryTest, SmallTableWithCollisions) {
  // The minimum table holds 12 values in 16 slots, so probes collide and
  // wrap; every prefix must stay fully findable, before and after the
  // first growth, and absent values must still miss.
  ValueDictionary dict;
  const std::vector<Value> values = ManyValues(40);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.GetOrIntern(values[i]), i);
    if (i < 12) {
      EXPECT_EQ(dict.capacity(), 16u);
    }
    for (size_t j = 0; j <= i; ++j) ASSERT_EQ(dict.Find(values[j]), j);
    for (size_t j = i + 1; j < values.size(); ++j) {
      ASSERT_EQ(dict.Find(values[j]), ValueDictionary::kNotInterned);
    }
  }
}

TEST(ValueDictionaryTest, ConcurrentFindReadsCorrectly) {
  ValueDictionary dict;
  const std::vector<Value> values = ManyValues(20000);
  for (size_t i = 0; i < values.size(); i += 2) dict.GetOrIntern(values[i]);
  const ValueDictionary& frozen = dict;
  std::vector<size_t> errors(4, 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; i < values.size(); i += 3) {
        const uint32_t want =
            i % 2 == 0 ? static_cast<uint32_t>(i / 2)
                       : ValueDictionary::kNotInterned;
        if (frozen.Find(values[i]) != want) ++errors[t];
        if (want != ValueDictionary::kNotInterned &&
            !(frozen.value(want) == values[i])) {
          ++errors[t];
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(errors[t], 0u) << "thread " << t;
}

}  // namespace
}  // namespace eid
