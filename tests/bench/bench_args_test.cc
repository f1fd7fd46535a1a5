// The shared bench command line (bench/bench_common.h): well-formed flags
// parse, and a malformed value or an unknown flag is a usage error (exit
// status 2) instead of an uncaught exception or a silently ignored typo.

#include "bench_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace veritas {
namespace bench {
namespace {

BenchArgs Parse(std::vector<std::string> words,
                const std::vector<BenchFlag>& extra = {}) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  return ParseBenchArgs(static_cast<int>(argv.size()), argv.data(), extra);
}

TEST(BenchArgsTest, SharedFlagsParse) {
  const BenchArgs args =
      Parse({"--scale=0.25", "--full", "--runs=3", "--seed=18446744073709551615"});
  EXPECT_DOUBLE_EQ(args.scale, 0.25);
  EXPECT_TRUE(args.full);
  EXPECT_EQ(args.runs, 3u);
  EXPECT_EQ(args.seed, UINT64_MAX);
}

TEST(BenchArgsTest, ExtraFlagsParseWithTheSameStrictness) {
  bool socket = false;
  uint64_t steps = 0;
  const std::vector<BenchFlag> extra = {
      {"--socket", [&](const std::string&) { return socket = true; }},
      {"--steps=", [&](const std::string& v) { return ParseUnsignedArg(v, &steps); }}};
  Parse({"--socket", "--steps=9", "--scale=2"}, extra);
  EXPECT_TRUE(socket);
  EXPECT_EQ(steps, 9u);
  EXPECT_EXIT(Parse({"--steps=nine"}, extra), ::testing::ExitedWithCode(2),
              "usage");
}

TEST(BenchArgsTest, MalformedValuesAreUsageErrors) {
  for (const char* bad : {"--scale=abc", "--scale=", "--scale=1.5x",
                          "--scale=-1", "--scale=inf", "--runs=-2",
                          "--runs=3.5", "--seed=99999999999999999999"}) {
    EXPECT_EXIT(Parse({bad}), ::testing::ExitedWithCode(2), "usage") << bad;
  }
}

TEST(BenchArgsTest, UnknownFlagsAreUsageErrors) {
  EXPECT_EXIT(Parse({"--scael=2"}), ::testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(Parse({"--socket"}), ::testing::ExitedWithCode(2), "usage");
}

}  // namespace
}  // namespace bench
}  // namespace veritas
