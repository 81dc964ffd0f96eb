#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/support/logging.h"
#include "src/support/result.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"

namespace gist {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Error("boom");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message(), "boom");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(Status(Error("x")).ok());
}

TEST(LoggingTest, LevelFilterRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, MacroCompilesForAllLevels) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // silence everything below error
  GIST_LOG(kDebug) << "not shown " << 1;
  GIST_LOG(kInfo) << "not shown " << 2.5;
  GIST_LOG(kWarning) << "not shown " << "three";
  SetLogLevel(original);
  SUCCEED();
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

// FixedBound::Mod is exact: quotient estimates low by one are corrected,
// at the edges of every bound's multiples and of the 64-bit range.
TEST(RngTest, FixedBoundModMatchesDivision) {
  Rng rng(17);
  std::vector<uint64_t> bounds = {2,
                                  3,
                                  7,
                                  12,
                                  13,
                                  1000,
                                  (uint64_t{1} << 31) - 1,
                                  uint64_t{1} << 32,
                                  (uint64_t{1} << 32) + 1,
                                  (uint64_t{1} << 63) - 1,
                                  uint64_t{1} << 63,
                                  (uint64_t{1} << 63) + 1,
                                  ~uint64_t{0}};
  for (int i = 0; i < 200; ++i) {
    bounds.push_back(2 + rng.NextU64() % 5000);
    bounds.push_back(std::max<uint64_t>(2, rng.NextU64() >> rng.NextBelow(64)));
  }
  for (const uint64_t bound : bounds) {
    const FixedBound fixed(bound);
    std::vector<uint64_t> xs = {0, 1, bound - 1, bound, ~uint64_t{0}, ~uint64_t{0} - 1};
    const uint64_t top = ~uint64_t{0} / bound;  // largest multiplier
    for (int i = 0; i < 100; ++i) {
      const uint64_t k = 1 + rng.NextU64() % top;
      xs.push_back(k * bound);
      xs.push_back(k * bound - 1);
      xs.push_back(rng.NextU64());
    }
    for (const uint64_t x : xs) {
      ASSERT_EQ(fixed.Mod(x), x % bound) << "x " << x << " bound " << bound;
    }
  }
}

// The fixed-bound draw returns NextBelow's values and consumes the same
// generator steps, bound 1 included.
TEST(RngTest, FixedBoundDrawMatchesNextBelow) {
  for (const uint64_t bound : {uint64_t{1}, uint64_t{2}, uint64_t{12}, uint64_t{90},
                               (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    Rng generic(bound);
    Rng fixed(bound);
    const FixedBound fixed_bound(bound);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(fixed.NextBelow(fixed_bound), generic.NextBelow(bound)) << bound;
    }
    EXPECT_EQ(fixed.NextU64(), generic.NextU64()) << bound;
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const int64_t value = rng.NextInRange(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.NextChance(1, 1));
    EXPECT_FALSE(rng.NextChance(0, 10));
  }
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream must not replay the parent's outputs.
  Rng parent_again(42);
  parent_again.Fork();
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    if (child.NextU64() != parent.NextU64()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(StrTest, SplitNonEmpty) {
  auto pieces = SplitNonEmpty("a,,b, c,", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], " c");
}

TEST(StrTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t"), "hi");
  EXPECT_EQ(StripWhitespace("\r\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("global x", "global "));
  EXPECT_FALSE(StartsWith("glob", "global"));
}

TEST(StrTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrTest, HashBytesStable) {
  const uint64_t h1 = HashBytes("abc", 3);
  const uint64_t h2 = HashBytes("abc", 3);
  const uint64_t h3 = HashBytes("abd", 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(StrTest, ParseU64AcceptsPlainDecimalInRange) {
  uint64_t value = 7;
  EXPECT_TRUE(ParseU64("0", UINT64_MAX, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseU64("0042", UINT64_MAX, &value));
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(ParseU64("18446744073709551615", UINT64_MAX, &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_TRUE(ParseU64("256", 256, &value));
  EXPECT_EQ(value, 256u);
  // The corpus count flags' ceiling, checked here rather than by launching a
  // command: an in-range count this large would generate that many programs.
  EXPECT_TRUE(ParseU64("4294967295", UINT32_MAX, &value));
  EXPECT_EQ(value, UINT32_MAX);
}

TEST(StrTest, ParseU64RejectsGarbageSignsAndOverflow) {
  uint64_t value = 7;
  for (const char* text : {"", "abc", "12x", "1x", "x1", " 1", "1 ", "-1", "+1", "1.5", "0x10",
                           "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(ParseU64(text, UINT64_MAX, &value)) << text;
  }
  EXPECT_FALSE(ParseU64("3", 2, &value));
  EXPECT_FALSE(ParseU64("4294967296", UINT32_MAX, &value));
  EXPECT_EQ(value, 7u);  // untouched on failure
}

TEST(StrTest, ParseU64EnforcesTheJobsCeiling) {
  // Checked here, not by launching a command: a command that reached the
  // pool with this value would start that many threads.
  uint64_t jobs = 0;
  EXPECT_TRUE(ParseU64(std::to_string(kMaxPoolThreads), kMaxPoolThreads, &jobs));
  EXPECT_EQ(jobs, kMaxPoolThreads);
  EXPECT_FALSE(ParseU64(std::to_string(kMaxPoolThreads + 1), kMaxPoolThreads, &jobs));
  EXPECT_FALSE(ParseU64("4294967295", kMaxPoolThreads, &jobs));
  EXPECT_FALSE(ParseU64("18446744073709551615", kMaxPoolThreads, &jobs));
  EXPECT_EQ(jobs, kMaxPoolThreads);
}

TEST(StrTest, ParseI64) {
  int64_t value = 7;
  EXPECT_TRUE(ParseI64("-3", &value));
  EXPECT_EQ(value, -3);
  EXPECT_TRUE(ParseI64("12", &value));
  EXPECT_EQ(value, 12);
  EXPECT_TRUE(ParseI64("-9223372036854775808", &value));
  EXPECT_EQ(value, INT64_MIN);
  EXPECT_TRUE(ParseI64("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);
  for (const char* text : {"", "-", "--1", "+1", "1x", "9223372036854775808",
                           "-9223372036854775809"}) {
    EXPECT_FALSE(ParseI64(text, &value)) << text;
  }
}

TEST(StrTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcde", 4), "abcde");
}

}  // namespace
}  // namespace gist
