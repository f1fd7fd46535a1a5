#include "cli.h"

#include <gtest/gtest.h>

namespace vbench {
namespace {

TEST(CliTest, ParsesEveryFlagInBothForms) {
  auto options = ParseArgs({"--workload", "fleet", "--seed=42", "--seconds",
                            "12", "--trace=1"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().workload, Workload::kFleet);
  EXPECT_EQ(options.value().seed, 42u);
  EXPECT_EQ(options.value().seconds, 12);
  EXPECT_TRUE(options.value().trace);
}

TEST(CliTest, DefaultsAllButTheWorkload) {
  auto options = ParseArgs({"--workload=stream"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options.value().workload, Workload::kStream);
  EXPECT_EQ(options.value().seconds, 10);
  EXPECT_FALSE(options.value().trace);
  EXPECT_FALSE(ParseArgs({}).ok());
}

TEST(CliTest, RejectsUnknownRepeatedAndValuelessFlags) {
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--scale", "2"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--workload", "fleet"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--seed"}).ok());
  EXPECT_FALSE(ParseArgs({"guide"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "batch"}).ok());
}

TEST(CliTest, RejectsMalformedValues) {
  for (const char* seed : {"", "12x", "-1", "+3", " 4", "1e3",
                           "18446744073709551616"}) {
    EXPECT_FALSE(ParseArgs({"--workload", "guide", "--seed", seed}).ok())
        << seed;
  }
  EXPECT_TRUE(ParseArgs({"--workload", "guide", "--seed",
                         "18446744073709551615"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--seconds", "0"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--seconds", "601"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--trace", "2"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "guide", "--trace", "yes"}).ok());
}

}  // namespace
}  // namespace vbench
