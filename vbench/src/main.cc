// veritas-bench: question latency of the serving stack over three
// workloads, with a traced per-layer breakdown. See vbench/README.md.
//
//   veritas_bench --workload guide|fleet|stream --seed N --seconds N
//                 --trace 0|1
//
// Prints the run record ("# " lines) and, last, one JSON line with the
// metrics. Exits 0 when every correctness check held, 1 when one failed,
// 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <thread>

#include "api/wire.h"
#include "cli.h"
#include "client.h"
#include "report.h"
#include "stack.h"
#include "stats.h"
#include "workloads.h"

namespace vbench {
namespace {

using veritas::ApiRequest;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One call on a fresh connection (the `metrics` and `stats` reads).
template <typename Response, typename Request>
veritas::Result<Response> Query(uint16_t port, Request params) {
  auto client = BenchClient::Connect(port, nullptr, "query");
  if (!client.ok()) return client.status();
  ApiRequest request;
  request.params = params;
  auto reply = client.value()->Call(std::move(request));
  if (!reply.ok()) return reply.status();
  return std::get<Response>(reply.value().result);
}

void PrintSamples(const char* name, const std::vector<double>& values) {
  const size_t n = values.size();
  const double tail = HighestSupportedPercentile(n);
  std::cout << "# " << name << ": n=" << n << " p50=" << Median(values)
            << " ms p90=" << Percentile(values, 90.0) << " ms (p90 "
            << (SamplesBeyond(n, 90.0) >= 10 ? "has" : "LACKS")
            << " 10 samples beyond it)";
  if (tail > 0) {
    std::cout << "; highest supported p" << tail << "="
              << Percentile(values, tail) << " ms";
  }
  std::cout << "\n";
}

int Run(const Options& options) {
  const WorkloadSpec spec = SpecFor(options.workload);
  const std::filesystem::path work_dir = EnvOr("VBENCH_WORK_DIR", ".bench_build");
  const std::filesystem::path checkpoints =
      work_dir / ("vbench-checkpoints-" + std::to_string(getpid()));
  std::error_code ignored;
  std::filesystem::create_directories(work_dir, ignored);

  std::cout << "# veritas-bench workload=" << WorkloadName(options.workload)
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " clients=" << spec.clients << "\n"
            << "# host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << CpuModel() << "\" build=" << VBENCH_BUILD_TYPE
            << " compiler=\"" << __VERSION__ << "\" rev="
            << EnvOr("VBENCH_SOURCE_REV", "unknown") << "\n";

  // Set-up: corpus generation plus stack (and router) start.
  std::vector<double> setup_s;
  std::vector<veritas::FactDatabase> corpora;
  std::unique_ptr<Stack> stack;
  const auto set_up = [&](TraceContext* trace) {
    stack.reset();
    std::filesystem::remove_all(checkpoints, ignored);
    const auto start = std::chrono::steady_clock::now();
    auto generated = GenerateCorpora(spec, options.seed);
    if (!generated.ok()) return generated.status();
    corpora = std::move(generated).value();
    auto started = Stack::Start(spec.fleet, checkpoints.string(), trace);
    if (!started.ok()) return started.status();
    stack = std::move(started).value();
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    return veritas::Status::OK();
  };

  std::vector<std::string> failures;
  const auto check_fleet = [&](const Stack& serving) {
    if (serving.router() == nullptr) return;
    const veritas::RouterStats stats = serving.router()->stats();
    if (stats.failovers != 0 || stats.admission_rejects != 0) {
      failures.push_back("fleet saw " + std::to_string(stats.failovers) +
                         " failovers and " +
                         std::to_string(stats.admission_rejects) +
                         " admission rejects");
    }
  };
  const auto collect = [&](const std::vector<ClientResult>& clients) {
    for (const ClientResult& client : clients) {
      failures.insert(failures.end(), client.check_failures.begin(),
                      client.check_failures.end());
    }
    ReplayResult replayed = ReplaySessions(clients, corpora, spec.clients);
    failures.insert(failures.end(), replayed.mismatches.begin(),
                    replayed.mismatches.end());
    return replayed.op_ms;
  };

  // The untraced window, in rounds on fresh stacks; latency samples pool
  // across rounds, rates and set-up times take the median round.
  std::vector<ClientResult> untraced;
  std::vector<double> steps_per_s, sessions_per_s;
  for (size_t round = 0; round < kRounds; ++round) {
    const veritas::Status ready = set_up(nullptr);
    if (!ready.ok()) {
      std::cerr << "set-up failed: " << ready.ToString() << "\n";
      return 1;
    }
    std::vector<ClientResult> clients =
        RunClients(spec, corpora, stack->port(), options.seed, round,
                   options.seconds / static_cast<double>(kRounds), nullptr);
    check_fleet(*stack);
    const PhaseSamples samples = Pool(clients);
    steps_per_s.push_back(samples.steps_per_s);
    sessions_per_s.push_back(samples.sessions_per_s);
    std::move(clients.begin(), clients.end(), std::back_inserter(untraced));
  }
  stack.reset();
  const double peak_rss_mb = PeakRssMb();
  PhaseSamples untraced_samples = Pool(untraced);
  untraced_samples.steps_per_s = Median(steps_per_s);
  untraced_samples.sessions_per_s = Median(sessions_per_s);
  collect(untraced);
  size_t attempted = untraced_samples.attempted;
  size_t failed = untraced_samples.failed;

  std::vector<Metric> metrics;
  std::vector<std::string> record;
  if (!options.trace) {
    metrics = EndToEndMetrics(untraced_samples, Median(setup_s), peak_rss_mb);
  } else {
    // The traced phase: one round of the whole window on a traced stack.
    TraceContext context;
    const veritas::Status ready = set_up(&context);
    if (!ready.ok()) {
      std::cerr << "traced set-up failed: " << ready.ToString() << "\n";
      return 1;
    }
    auto before = Query<veritas::MetricsResponse>(stack->backend_port(),
                                                  veritas::MetricsRequest{});
    const std::vector<ClientResult> traced =
        RunClients(spec, corpora, stack->port(), options.seed, 0,
                   options.seconds, &context.tracer);
    auto after = Query<veritas::MetricsResponse>(stack->backend_port(),
                                                 veritas::MetricsRequest{});
    auto stats = Query<veritas::StatsResponse>(stack->port(),
                                               veritas::StatsRequest{});
    if (!before.ok() || !after.ok() || !stats.ok()) {
      std::cerr << "metrics or stats read failed\n";
      return 1;
    }
    check_fleet(*stack);
    if (context.unattributed_checkpoints.load() != 0) {
      failures.push_back(std::to_string(context.unattributed_checkpoints.load()) +
                         " checkpoint frames could not be attributed");
    }
    const PhaseSamples traced_samples = Pool(traced);
    attempted += traced_samples.attempted;
    failed += traced_samples.failed;
    TracedPhase phase;
    phase.untraced = &untraced_samples;
    phase.traced = &traced_samples;
    phase.spans = context.tracer.Finished();
    phase.before = before.value().snapshot;
    phase.after = after.value().snapshot;
    phase.peak_resident_bytes = stats.value().stats.peak_resident_bytes;
    phase.failovers = stack->router() ? stack->router()->stats().failovers : 0;
    phase.checkpoint_frames = context.checkpoint_frames.load();
    phase.core_ms = collect(traced);
    metrics = PerLayerMetrics(phase, &record, &failures);
    const std::filesystem::path spans_path =
        work_dir / ("vbench-spans-" + std::string(WorkloadName(options.workload)) +
                    "-" + std::to_string(options.seed) + ".jsonl");
    const veritas::Status written = context.tracer.WriteJsonLines(spans_path.string());
    record.push_back(written.ok() ? std::to_string(phase.spans.size()) +
                                        " spans written to " + spans_path.string()
                                  : written.ToString());
  }
  stack.reset();
  std::filesystem::remove_all(checkpoints, ignored);

  std::cout << "# untraced phase: sessions=" << untraced_samples.sessions
            << " requests=" << untraced_samples.attempted
            << " failed=" << untraced_samples.failed << " stopped:";
  for (const auto& [reason, count] : untraced_samples.stop_reasons) {
    std::cout << " " << reason << "=" << count;
  }
  std::cout << "\n";
  PrintSamples("question", untraced_samples.question_ms);
  PrintSamples("open", untraced_samples.open_ms);
  PrintSamples("ground", untraced_samples.ground_ms);
  std::cout << "# precision_mean over n=" << untraced_samples.precisions.size()
            << " sessions; rates and setup_s are medians of " << kRounds
            << " rounds\n";
  for (const std::string& line : record) std::cout << "# " << line << "\n";
  for (const std::string& failure : failures) {
    std::cout << "# CHECK FAILED: " << failure << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << "# " << metric.name << " = " << metric.value << " "
              << metric.unit << "\n";
  }
  const bool correct = failures.empty();
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto options = vbench::ParseArgs(args);
  if (!options.ok()) {
    std::cerr << "veritas_bench: " << options.status().message() << "\n"
              << vbench::Usage() << "\n";
    return 2;
  }
  return vbench::Run(options.value());
}
