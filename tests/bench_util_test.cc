// The bench command-line helpers: `--jobs` is parsed strictly, like the
// gist CLI's numeric flags, so a typo is a usage error (exit 2) instead of
// a worker count the bench silently made up.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/support/thread_pool.h"

namespace gist {
namespace {

// Runs ParseJobsFlag over a command line given as strings.
uint32_t ParseJobs(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseJobsFlag(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtilTest, JobsValueAcceptsPlainNumbersUpToTheCeiling) {
  uint32_t jobs = 99;
  EXPECT_TRUE(ParseJobsValue("0", &jobs));
  EXPECT_EQ(jobs, 0u);
  EXPECT_TRUE(ParseJobsValue("4", &jobs));
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(ParseJobsValue(std::to_string(kMaxPoolThreads), &jobs));
  EXPECT_EQ(jobs, kMaxPoolThreads);
}

TEST(BenchUtilTest, JobsValueRejectsMalformedAndOutOfRangeValues) {
  // 4294967297 is 2^32 + 1, which a 32-bit truncation would read as 1.
  for (const char* text : {"", "abc", "-1", "+4", " 4", "4 ", "4x", "0x10", "257", "4294967297",
                           "18446744073709551616"}) {
    uint32_t jobs = 7;
    EXPECT_FALSE(ParseJobsValue(text, &jobs)) << "'" << text << "'";
    EXPECT_EQ(jobs, 7u) << "'" << text << "'";
  }
  uint32_t jobs = 7;
  EXPECT_FALSE(ParseJobsValue(std::to_string(kMaxPoolThreads + 1), &jobs));
}

TEST(BenchUtilTest, JobsFlagDefaultsToOneAndReadsBothSpellings) {
  EXPECT_EQ(ParseJobs({}), 1u);
  EXPECT_EQ(ParseJobs({"--other", "x"}), 1u);
  EXPECT_EQ(ParseJobs({"--jobs", "3"}), 3u);
  EXPECT_EQ(ParseJobs({"--jobs=5"}), 5u);
  EXPECT_EQ(ParseJobs({"--jobs", "0"}), 0u);
}

TEST(BenchUtilTest, BadJobsFlagExitsWithUsageError) {
  EXPECT_EXIT(ParseJobs({"--jobs", "abc"}), ::testing::ExitedWithCode(2), "--jobs");
  EXPECT_EXIT(ParseJobs({"--jobs=-2"}), ::testing::ExitedWithCode(2), "--jobs");
  EXPECT_EXIT(ParseJobs({"--jobs", "257"}), ::testing::ExitedWithCode(2), "--jobs");
  EXPECT_EXIT(ParseJobs({"--jobs"}), ::testing::ExitedWithCode(2), "--jobs");
}

}  // namespace
}  // namespace gist
