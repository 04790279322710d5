#include "common/value.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

namespace sentinel {
namespace {

// Names are symbols: a string does not make a Value. Without the deleted
// overloads, Value("R1") would silently become Value(true).
static_assert(!std::is_constructible_v<Value, const char*>);
static_assert(!std::is_constructible_v<Value, std::string>);
static_assert(std::is_constructible_v<Value, Symbol>);

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(Symbol(4)).AsSymbol(), Symbol(4));
}

TEST(ValueTest, CrossTypeCoercions) {
  EXPECT_EQ(Value(int64_t{1}).AsBool(), true);
  EXPECT_EQ(Value(int64_t{0}).AsBool(), false);
  EXPECT_EQ(Value(true).AsInt(), 1);
  EXPECT_EQ(Value(2.9).AsInt(), 2);
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
}

TEST(ValueTest, FallbacksOnMismatch) {
  EXPECT_EQ(Value(Symbol(4)).AsInt(5), 5);
  EXPECT_FALSE(Value(int64_t{1}).AsSymbol().valid());
  EXPECT_EQ(Value().AsBool(true), true);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(Symbol(1)), Value(Symbol(1)));
  EXPECT_FALSE(Value(Symbol(1)) == Value(Symbol(2)));
  EXPECT_FALSE(Value(int64_t{1}) == Value(true));  // Distinct alternatives.
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(Symbol(7)).ToString(), "@7");
}

TEST(DurationConstantsTest, Arithmetic) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
}

}  // namespace
}  // namespace sentinel
