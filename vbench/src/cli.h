/// \file
/// Strict command line of veritas-bench. Every flag is required to be known
/// and every value well formed: an unknown flag, a repeated flag, a missing
/// value or a malformed number is a usage error, never silently ignored.
///
///   veritas_bench --workload guide|fleet|stream --seed N --seconds N
///                 --trace 0|1
///
/// Flags take their value as the next argument or after '='.

#ifndef VBENCH_CLI_H_
#define VBENCH_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace vbench {

enum class Workload { kGuide, kFleet, kStream };

const char* WorkloadName(Workload workload);

struct Options {
  Workload workload = Workload::kGuide;
  uint64_t seed = 1;
  /// Length of the measured window, in seconds (1..600).
  int seconds = 10;
  /// 0: untraced run, end-to-end metrics. 1: traced run, per-layer metrics.
  bool trace = false;
};

/// Parses argv[1..]. `--workload` is required; the rest default as above.
veritas::Result<Options> ParseArgs(const std::vector<std::string>& args);

/// The usage text printed with a parse error.
const char* Usage();

}  // namespace vbench

#endif  // VBENCH_CLI_H_
