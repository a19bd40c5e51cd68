// Unit tests for the common runtime: Value, ValueVector, Rng, Zipf.
#include <gtest/gtest.h>

#include "common/random.h"
#include "common/value.h"

namespace ges {
namespace {

TEST(ValueTest, TypedConstructorsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("abc").AsString(), "abc");
  EXPECT_EQ(Value::Date(123456).AsInt(), 123456);
  EXPECT_EQ(Value::Vertex(42).AsVertex(), 42u);
}

TEST(ValueTest, CompareWithinType) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_LT(Value::Double(1.5), Value::Double(1.6));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_GT(Value::Double(3.5).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // Non-numeric cross-type comparisons order by type tag, never crash.
  Value a = Value::String("x");
  Value b = Value::Int(5);
  EXPECT_NE(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(b), -b.Compare(a));
}

TEST(ValueTest, HashEqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Int(43).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Vertex(3).ToString(), "v3");
}

TEST(ValueVectorTest, IntColumn) {
  ValueVector v(ValueType::kInt64);
  for (int i = 0; i < 100; ++i) v.AppendInt(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.GetInt(7), 7);
  EXPECT_EQ(v.GetValue(7), Value::Int(7));
  v.SetInt(7, -1);
  EXPECT_EQ(v.GetInt(7), -1);
}

TEST(ValueVectorTest, StringColumn) {
  ValueVector v(ValueType::kString);
  v.AppendString("a");
  v.AppendString("b");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.GetString(1), "b");
  EXPECT_EQ(v.GetValue(0), Value::String("a"));
}

TEST(ValueVectorTest, AppendRangePreservesValues) {
  ValueVector a(ValueType::kInt64);
  for (int i = 0; i < 10; ++i) a.AppendInt(i);
  ValueVector b(ValueType::kInt64);
  b.AppendRange(a, 3, 7);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.GetInt(0), 3);
  EXPECT_EQ(b.GetInt(3), 6);
}

TEST(ValueVectorTest, AppendValueDispatchesByColumnType) {
  ValueVector v(ValueType::kDouble);
  v.AppendValue(Value::Int(2));  // numeric coercion into a double column
  EXPECT_DOUBLE_EQ(v.GetDouble(0), 2.0);
}

TEST(ValueVectorTest, MemoryBytesGrowsWithContent) {
  ValueVector v(ValueType::kInt64);
  size_t empty = v.MemoryBytes();
  for (int i = 0; i < 1000; ++i) v.AppendInt(i);
  EXPECT_GT(v.MemoryBytes(), empty + 1000 * sizeof(int64_t) - 1);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(3);
  ZipfSampler zipf(100, 0.9);
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t s = zipf.Sample(rng);
    EXPECT_LT(s, 100u);
    if (s < 10) ++low;
    if (s >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

}  // namespace
}  // namespace ges
