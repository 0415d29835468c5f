#include <gtest/gtest.h>

#include <unordered_set>

#include "common/event.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/value.h"

namespace aseq {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("hello");
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  ASEQ_ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

TEST(ValueTest, Types) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(5).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("abc")).type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(5).Equals(Value(5.0)));
  EXPECT_FALSE(Value(5).Equals(Value(5.5)));
  EXPECT_TRUE(Value(5).Equals(Value(5)));
}

TEST(ValueTest, NullEqualsOnlyNull) {
  EXPECT_TRUE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(0)));
  EXPECT_FALSE(Value(0).Equals(Value()));
}

TEST(ValueTest, StringVsNumberUnequal) {
  EXPECT_FALSE(Value("5").Equals(Value(5)));
  EXPECT_FALSE(Value("5").ComparableWith(Value(5)));
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value(1).LessThan(Value(2)));
  EXPECT_TRUE(Value(1).LessThan(Value(1.5)));
  EXPECT_FALSE(Value(2).LessThan(Value(1)));
  EXPECT_TRUE(Value("a").LessThan(Value("b")));
  EXPECT_FALSE(Value("a").LessThan(Value(1)));  // unordered
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value(7).Hash(), Value(7.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value(std::string("x")).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  ValueTotalLess less;
  EXPECT_TRUE(less(Value(), Value(0)));
  EXPECT_TRUE(less(Value(99), Value("a")));
  EXPECT_FALSE(less(Value("a"), Value(99)));
  EXPECT_FALSE(less(Value(5), Value(5.0)));
  EXPECT_FALSE(less(Value(5.0), Value(5)));
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

TEST(SchemaTest, RegistrationIsIdempotent) {
  Schema schema;
  EventTypeId a1 = schema.RegisterEventType("A");
  EventTypeId a2 = schema.RegisterEventType("A");
  EventTypeId b = schema.RegisterEventType("B");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(schema.num_event_types(), 2u);
}

TEST(SchemaTest, LookupAndNames) {
  Schema schema;
  EventTypeId a = schema.RegisterEventType("DELL");
  AttrId p = schema.RegisterAttribute("price");
  ASSERT_TRUE(schema.FindEventType("DELL").ok());
  EXPECT_EQ(*schema.FindEventType("DELL"), a);
  EXPECT_EQ(*schema.FindAttribute("price"), p);
  EXPECT_EQ(schema.EventTypeName(a), "DELL");
  EXPECT_EQ(schema.AttributeName(p), "price");
  EXPECT_FALSE(schema.FindEventType("IPIX").ok());
  EXPECT_EQ(schema.FindEventType("IPIX").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, UnknownIdsRenderQuestionMark) {
  Schema schema;
  EXPECT_EQ(schema.EventTypeName(99), "?");
  EXPECT_EQ(schema.AttributeName(99), "?");
}

// --------------------------------------------------------------------------
// Event
// --------------------------------------------------------------------------

TEST(EventTest, AttributeAccess) {
  Schema schema;
  AttrId price = schema.RegisterAttribute("price");
  AttrId volume = schema.RegisterAttribute("volume");
  Event e(schema.RegisterEventType("DELL"), 100);
  e.SetAttr(price, Value(24.5));
  EXPECT_NE(e.FindAttr(price), nullptr);
  EXPECT_EQ(e.FindAttr(volume), nullptr);
  EXPECT_TRUE(e.GetAttr(price).Equals(Value(24.5)));
  EXPECT_TRUE(e.GetAttr(volume).is_null());
}

TEST(EventTest, SetAttrOverwrites) {
  Schema schema;
  AttrId price = schema.RegisterAttribute("price");
  Event e(schema.RegisterEventType("DELL"), 100);
  e.SetAttr(price, Value(1));
  e.SetAttr(price, Value(2));
  EXPECT_TRUE(e.GetAttr(price).Equals(Value(2)));
  EXPECT_EQ(e.attrs().size(), 1u);
}

TEST(EventTest, ToStringRendersTypeAndAttrs) {
  Schema schema;
  Event e(schema.RegisterEventType("DELL"), 7);
  e.SetAttr(schema.RegisterAttribute("v"), Value(3));
  EXPECT_EQ(e.ToString(schema), "DELL@7{v=3}");
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, RangesRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(rng.NextUInt(5), 5u);
  }
}

TEST(RngTest, CoversRange) {
  Rng rng(2);
  std::unordered_set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

// --------------------------------------------------------------------------
// string_util
// --------------------------------------------------------------------------

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, CaseInsensitiveEquals) {
  EXPECT_TRUE(EqualsIgnoreCase("PaTtErN", "pattern"));
  EXPECT_FALSE(EqualsIgnoreCase("pattern", "patterns"));
  EXPECT_EQ(ToUpperAscii("seq"), "SEQ");
}

}  // namespace
}  // namespace aseq
