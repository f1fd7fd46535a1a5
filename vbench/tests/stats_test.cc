#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace vbench {
namespace {

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  std::vector<double> values(11);
  std::iota(values.begin(), values.end(), 0.0);  // 0..10, shuffled below
  std::swap(values[0], values[7]);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 90.0), 9.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 95.0), 9.5);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(StatsTest, SamplesBeyondCountsStrictlyAboveTheRank) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(9999, 99.9), 9u);
  EXPECT_EQ(SamplesBeyond(5, 50.0), 2u);
}

TEST(StatsTest, HighestSupportedPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(39), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(40), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100, 11), 75.0);
}

}  // namespace
}  // namespace vbench
