#include "cli.h"

#include <cerrno>
#include <cstdlib>
#include <map>

namespace vbench {

using veritas::Result;
using veritas::Status;

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kGuide:
      return "guide";
    case Workload::kFleet:
      return "fleet";
    case Workload::kStream:
      return "stream";
  }
  return "?";
}

const char* Usage() {
  return "usage: veritas_bench --workload guide|fleet|stream [--seed N]\n"
         "                     [--seconds 1..600] [--trace 0|1]";
}

namespace {

/// Whole decimal number in [lo, hi]; no sign, no spaces, no trailing text.
Result<uint64_t> ParseUnsigned(const std::string& flag, const std::string& text,
                               uint64_t lo, uint64_t hi) {
  const auto bad = [&] {
    return Status::InvalidArgument("malformed value for " + flag + ": '" +
                                   text + "'");
  };
  if (text.empty() || text.size() > 20) return bad();
  for (char c : text) {
    if (c < '0' || c > '9') return bad();
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || value < lo || value > hi) {
    return Status::InvalidArgument(flag + " out of range: '" + text + "'");
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

Result<Options> ParseArgs(const std::vector<std::string>& args) {
  std::map<std::string, std::string> values;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    std::string flag = arg;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return Status::InvalidArgument("missing value for " + flag);
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      return Status::InvalidArgument("unknown flag " + flag);
    }
    if (!values.emplace(flag, value).second) {
      return Status::InvalidArgument("repeated flag " + flag);
    }
  }

  Options options;
  auto workload = values.find("--workload");
  if (workload == values.end()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (workload->second == "guide") {
    options.workload = Workload::kGuide;
  } else if (workload->second == "fleet") {
    options.workload = Workload::kFleet;
  } else if (workload->second == "stream") {
    options.workload = Workload::kStream;
  } else {
    return Status::InvalidArgument("unknown workload '" + workload->second +
                                   "'");
  }
  if (auto it = values.find("--seed"); it != values.end()) {
    auto seed = ParseUnsigned("--seed", it->second, 0, UINT64_MAX);
    if (!seed.ok()) return seed.status();
    options.seed = seed.value();
  }
  if (auto it = values.find("--seconds"); it != values.end()) {
    auto seconds = ParseUnsigned("--seconds", it->second, 1, 600);
    if (!seconds.ok()) return seconds.status();
    options.seconds = static_cast<int>(seconds.value());
  }
  if (auto it = values.find("--trace"); it != values.end()) {
    auto trace = ParseUnsigned("--trace", it->second, 0, 1);
    if (!trace.ok()) return trace.status();
    options.trace = trace.value() == 1;
  }
  return options;
}

}  // namespace vbench
