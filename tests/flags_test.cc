// Pins for strict numeric flag validation: a value that does not parse in
// full must exit with a non-zero status naming the offending flag — never
// silently read as 0.0 (the pre-fix behavior turned --theta=O.7 into a
// garbage run with a clean exit status).
#include <gtest/gtest.h>

#include <cstdint>

#include <cmath>

#include "util/flags.h"

namespace sssj {
namespace {

TEST(FlagsValidationDeathTest, BadScalarExitsNamingFlag) {
  const char* argv[] = {"prog", "--theta=abc"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDouble("theta", 0.7), ::testing::ExitedWithCode(2),
              "--theta");
}

TEST(FlagsValidationDeathTest, TrailingJunkExitsNamingFlag) {
  const char* argv[] = {"prog", "--lambda=0.01x"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDouble("lambda", 0.01), ::testing::ExitedWithCode(2),
              "--lambda");
}

TEST(FlagsValidationDeathTest, EmptyScalarValueExits) {
  const char* argv[] = {"prog", "--theta="};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDouble("theta", 0.7), ::testing::ExitedWithCode(2),
              "--theta");
}

TEST(FlagsValidationDeathTest, ValuelessNumericFlagExits) {
  // "--theta --tsv": the value was forgotten; the parser records a bare
  // flag. Falling back to the default here would silently run with the
  // wrong parameters.
  const char* argv[] = {"prog", "--theta", "--tsv"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDouble("theta", 0.7), ::testing::ExitedWithCode(2),
              "--theta");
  EXPECT_EXIT(f.GetDoubleList("theta", {}), ::testing::ExitedWithCode(2),
              "--theta");
  EXPECT_EXIT(f.GetInt("theta", 1), ::testing::ExitedWithCode(2), "--theta");
}

TEST(FlagsValidationDeathTest, BadIntExitsNamingFlag) {
  const char* argv[] = {"prog", "--seed=12q"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetInt("seed", 42), ::testing::ExitedWithCode(2), "--seed");
}

TEST(FlagsValidationDeathTest, IntOutsideInt64ExitsNamingFlag) {
  // strtoll clamps an overflow to INT64_MAX; reading that clamp as the
  // value would turn a typo'd --seed into a different run.
  const char* argv[] = {"prog", "--seed=9223372036854775808"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetInt("seed", 42), ::testing::ExitedWithCode(2), "--seed");
}

TEST(FlagsValidationDeathTest, BadListElementExitsNamingFlag) {
  const char* argv[] = {"prog", "--theta-list=0.5,oops,0.9"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDoubleList("theta-list", {}),
              ::testing::ExitedWithCode(2), "--theta-list");
}

TEST(FlagsValidationDeathTest, EmptyListItemExits) {
  const char* argv[] = {"prog", "--theta-list=0.5,,0.9"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDoubleList("theta-list", {}),
              ::testing::ExitedWithCode(2), "--theta-list");
}

TEST(FlagsValidationDeathTest, TrailingCommaExits) {
  const char* argv[] = {"prog", "--theta-list=0.5,0.9,"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.GetDoubleList("theta-list", {}),
              ::testing::ExitedWithCode(2), "--theta-list");
}

TEST(FlagsValidationTest, WellFormedValuesStillParse) {
  const char* argv[] = {"prog", "--theta=0.75", "--seed=-3",
                        "--theta-list=1e-3,0.5,.25", "--inf=inf"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("theta", 0.0), 0.75);
  EXPECT_EQ(f.GetInt("seed", 0), -3);
  const auto v = f.GetDoubleList("theta-list", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1e-3);
  EXPECT_DOUBLE_EQ(v[2], 0.25);
  // strtod accepts "inf"/"nan" spellings; full consumption is the bar.
  EXPECT_TRUE(std::isinf(f.GetDouble("inf", 0.0)));
}


// ---- non-exiting parse cores ----
// ParseFlagInt/Double/DoubleList are the validation behind the exiting
// getters (and the surface fuzz/fuzz_flags.cc drives); their contract:
// full-value consumption, false on any malformation, *out untouched on
// failure.

TEST(FlagsParseCoreTest, IntAcceptsAndRejects) {
  int64_t v = 42;
  EXPECT_TRUE(ParseFlagInt("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseFlagInt("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  v = 42;
  EXPECT_FALSE(ParseFlagInt("", &v));
  EXPECT_FALSE(ParseFlagInt("12x", &v));
  EXPECT_FALSE(ParseFlagInt("x12", &v));
  EXPECT_FALSE(ParseFlagInt("1.5", &v));
  EXPECT_EQ(v, 42);  // untouched on every failure
}

TEST(FlagsParseCoreTest, IntRejectsValuesOutsideInt64) {
  int64_t v = 42;
  EXPECT_TRUE(ParseFlagInt("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  v = 42;
  EXPECT_FALSE(ParseFlagInt("9223372036854775808", &v));  // > INT64_MAX
  EXPECT_FALSE(ParseFlagInt("-9223372036854775809", &v));  // < INT64_MIN
  EXPECT_FALSE(ParseFlagInt("18446744073709551616", &v));  // 2^64
  EXPECT_EQ(v, 42);  // untouched on every failure
}

TEST(FlagsParseCoreTest, DoubleAcceptsAndRejects) {
  double d = 1.0;
  EXPECT_TRUE(ParseFlagDouble("0.75", &d));
  EXPECT_DOUBLE_EQ(d, 0.75);
  EXPECT_TRUE(ParseFlagDouble("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  d = 1.0;
  EXPECT_FALSE(ParseFlagDouble("", &d));
  EXPECT_FALSE(ParseFlagDouble("O.7", &d));  // the motivating typo
  EXPECT_FALSE(ParseFlagDouble("0.7theta", &d));
  EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(FlagsParseCoreTest, DoubleListCountsEveryElement) {
  std::vector<double> out;
  EXPECT_TRUE(ParseFlagDoubleList("0.5,0.7,0.9", &out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[1], 0.7);
  EXPECT_TRUE(ParseFlagDoubleList("1", &out));
  EXPECT_EQ(out.size(), 1u);
  // Nothing may be silently skipped or implied.
  EXPECT_FALSE(ParseFlagDoubleList("", &out));
  EXPECT_FALSE(ParseFlagDoubleList("0.5,,0.7", &out));
  EXPECT_FALSE(ParseFlagDoubleList("0.5,0.7,", &out));
  EXPECT_FALSE(ParseFlagDoubleList(",0.5", &out));
  EXPECT_FALSE(ParseFlagDoubleList("0.5,abc", &out));
}

}  // namespace
}  // namespace sssj
