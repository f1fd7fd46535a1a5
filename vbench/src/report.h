/// \file
/// The run record: end-to-end metrics from an untraced phase, per-layer
/// metrics from a traced one, the question-time breakdown by layer, and the
/// final JSON line.

#ifndef VBENCH_REPORT_H_
#define VBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace vbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every client's samples of one phase, pooled.
struct PhaseSamples {
  std::vector<double> question_ms;
  std::vector<double> open_ms;
  std::vector<double> ground_ms;
  std::vector<double> precisions;
  std::vector<double> entropy_drops;
  std::vector<CallRecord> calls;
  /// Summed per-client rates: each client's count over its own active time.
  double steps_per_s = 0.0;
  double sessions_per_s = 0.0;
  size_t sessions = 0;
  std::map<std::string, size_t> stop_reasons;
  size_t attempted = 0;
  size_t failed = 0;
};

PhaseSamples Pool(const std::vector<ClientResult>& clients);

std::vector<Metric> EndToEndMetrics(const PhaseSamples& samples,
                                    double setup_s, double peak_rss_mb);

/// What the traced phase observed besides its client samples.
struct TracedPhase {
  const PhaseSamples* untraced = nullptr;
  const PhaseSamples* traced = nullptr;
  std::vector<Span> spans;
  veritas::MetricsSnapshot before;
  veritas::MetricsSnapshot after;
  size_t peak_resident_bytes = 0;
  size_t failovers = 0;
  size_t checkpoint_frames = 0;
  /// In-process call times of the traced phase's replay, by kind
  /// (ReplayResult::op_ms).
  std::map<std::string, std::vector<double>> core_ms;
};

/// Per-layer metrics. `record` receives human-readable lines (the
/// question-time breakdown); `failures` any span that nests wrongly.
std::vector<Metric> PerLayerMetrics(const TracedPhase& phase,
                                    std::vector<std::string>* record,
                                    std::vector<std::string>* failures);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace vbench

#endif  // VBENCH_REPORT_H_
