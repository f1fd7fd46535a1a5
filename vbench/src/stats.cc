#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double p) {
  // Integer arithmetic in thousandths of a percent keeps 99.9 exact.
  const auto milli = static_cast<unsigned long long>(std::llround(p * 1000.0));
  const unsigned long long scaled = static_cast<unsigned long long>(n) * milli;
  const unsigned long long at = (scaled + 100000 - 1) / 100000;  // ceil
  return at >= n ? 0 : n - static_cast<size_t>(at);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

}  // namespace vbench
