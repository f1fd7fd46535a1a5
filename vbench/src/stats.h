/// \file
/// Sample statistics of the run record: percentiles by linear interpolation
/// between closest ranks, and the rule that picks the highest percentile a
/// sample can support — the highest one with at least ten samples beyond
/// it, so a tail figure never rests on a handful of requests.

#ifndef VBENCH_STATS_H_
#define VBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace vbench {

/// The p-th percentile (p in [0, 100]) of `values`, interpolating linearly
/// between the two closest ranks. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Samples strictly beyond the p-th percentile of n samples:
/// n - ceil(n * p / 100).
size_t SamplesBeyond(size_t n, double p);

/// The highest of the percentiles 50, 75, 90, 95, 99, 99.9 with at least
/// `min_beyond` (default ten) samples beyond it; 0 when not even the median
/// qualifies.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

}  // namespace vbench

#endif  // VBENCH_STATS_H_
