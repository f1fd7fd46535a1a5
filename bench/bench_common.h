#ifndef VERITAS_BENCH_BENCH_COMMON_H_
#define VERITAS_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/validation.h"
#include "data/emulator.h"

namespace veritas {
namespace bench {

/// Command-line knobs shared by all bench binaries.
///
///   --scale=<f>   multiply the default corpus scales by f (> 0)
///   --full        paper-scale corpora (slow; documented in EXPERIMENTS.md)
///   --runs=<n>    repetitions where applicable
///   --seed=<n>    base RNG seed
struct BenchArgs {
  double scale = 1.0;
  bool full = false;
  size_t runs = 1;
  uint64_t seed = 42;
};

/// A flag one bench binary adds to the shared set: "--name" (a switch,
/// `apply` receives "") or "--name=" (valued, `apply` receives the text
/// after '='). `apply` returns false when the value is malformed.
struct BenchFlag {
  std::string name;
  std::function<bool(const std::string&)> apply;
};

/// Whole-string decimal parses: no sign, no trailing text, no overflow.
inline bool ParseUnsignedArg(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

inline bool ParseDoubleArg(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Parses the shared flags plus `extra`. A malformed value or an unknown
/// flag prints a usage message and exits with status 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const std::vector<BenchFlag>& extra = {}) {
  BenchArgs args;
  uint64_t runs = args.runs;
  std::vector<BenchFlag> flags = {
      {"--scale=",
       [&](const std::string& v) {
         return ParseDoubleArg(v, &args.scale) && args.scale > 0.0;
       }},
      {"--full", [&](const std::string&) { return args.full = true; }},
      {"--runs=", [&](const std::string& v) { return ParseUnsignedArg(v, &runs); }},
      {"--seed=",
       [&](const std::string& v) { return ParseUnsignedArg(v, &args.seed); }},
  };
  flags.insert(flags.end(), extra.begin(), extra.end());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool accepted = false;
    for (const BenchFlag& flag : flags) {
      const bool valued = flag.name.back() == '=';
      if (valued ? arg.rfind(flag.name, 0) == 0 : arg == flag.name) {
        accepted = flag.apply(valued ? arg.substr(flag.name.size()) : "");
        break;
      }
    }
    if (!accepted) {
      std::cerr << argv[0] << ": bad argument '" << arg << "'\nusage: "
                << argv[0];
      for (const BenchFlag& flag : flags) {
        std::cerr << " [" << flag.name
                  << (flag.name.back() == '=' ? "<value>" : "") << "]";
      }
      std::cerr << "\n";
      std::exit(2);
    }
  }
  args.runs = static_cast<size_t>(runs);
  return args;
}

/// Default bench scales bring every corpus to roughly 80 claims so that a
/// full validation run finishes in seconds while the relative structure
/// (sources per claim, documents per source) of each corpus is preserved.
/// --full restores the paper-scale corpus sizes.
///
/// The noise knobs are set to the "hard" regime for benches: real Web
/// corpora have far weaker feature-credibility correlation and noisier
/// stances than the emulator's defaults, and the paper's precision curves
/// start near 0.5 — this calibration reproduces that starting point.
inline std::vector<CorpusSpec> BenchSpecs(const BenchArgs& args) {
  std::vector<CorpusSpec> specs{WikipediaSpec(), HealthSpec(), SnopesSpec()};
  const double factors[3] = {0.5, 0.15, 0.016};
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!args.full) specs[i] = Scaled(specs[i], factors[i] * args.scale);
    specs[i].feature_noise = 0.3;
    specs[i].stance_fidelity = i == 1 ? 0.68 : 0.72;
    specs[i].adversarial_fraction += 0.1;
    specs[i].quality_coupling = 0.4;
  }
  return specs;
}

/// Generates the bench corpora (wiki, health, snopes order).
inline std::vector<EmulatedCorpus> BenchCorpora(const BenchArgs& args) {
  std::vector<EmulatedCorpus> corpora;
  for (const CorpusSpec& spec : BenchSpecs(args)) {
    Rng rng(args.seed ^ (corpora.size() + 1) * 0x9e3779b97f4a7c15ULL);
    auto corpus = GenerateCorpus(spec, &rng);
    if (!corpus.ok()) {
      std::cerr << "corpus generation failed: " << corpus.status() << "\n";
      std::exit(1);
    }
    corpora.push_back(std::move(corpus).value());
  }
  return corpora;
}

/// Validation options tuned for bench speed; strategies still exercise the
/// real guidance machinery.
inline ValidationOptions BenchValidationOptions(StrategyKind strategy,
                                                uint64_t seed) {
  ValidationOptions options;
  options.icrf.gibbs.burn_in = 10;
  options.icrf.gibbs.num_samples = 40;
  options.icrf.max_em_iterations = 2;
  options.guidance.variant = GuidanceVariant::kParallelPartition;
  options.guidance.candidate_pool = 32;
  options.strategy = strategy;
  options.seed = seed;
  options.target_precision = 2.0;  // run on budget unless overridden
  return options;
}

/// Effort at which a trace first reaches `target` precision (1.0 if never).
inline double EffortToReach(const std::vector<IterationRecord>& trace,
                            double target) {
  for (const IterationRecord& record : trace) {
    if (record.precision >= target) return record.effort;
  }
  return 1.0;
}

/// Precision at (or immediately before) a given effort level.
inline double PrecisionAtEffort(const std::vector<IterationRecord>& trace,
                                double effort, double initial_precision) {
  double precision = initial_precision;
  for (const IterationRecord& record : trace) {
    if (record.effort > effort + 1e-9) break;
    precision = record.precision;
  }
  return precision;
}

/// Emits the qualitative assertion line each bench prints so that the
/// experiment log records whether the paper's claim held on this run.
inline void PrintShapeCheck(bool pass, const std::string& description) {
  std::cout << "# shape-check: " << (pass ? "PASS" : "MISS") << " - "
            << description << "\n";
}

}  // namespace bench
}  // namespace veritas

#endif  // VERITAS_BENCH_BENCH_COMMON_H_
