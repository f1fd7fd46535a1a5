/// \file
/// Pluggable CRF inference backends (DESIGN.md §13). Every marginal
/// computation of the pipeline — the committed E-step of ICrf and, through
/// the HypotheticalEngine, the guidance scoring — runs behind one
/// interface, `CrfSolver::Marginals(mrf, state, opts)`, so backends are
/// interchangeable per workload:
///
///   kGibbs      sequential Gibbs (crf/gibbs.h) — the committed reference.
///   kChromatic  chromatic counter-based parallel Gibbs (crf/chromatic.h),
///               bit-identical at any thread count.
///   kExact      forest belief propagation (TreeSumProduct) per connected
///               component, with brute-force enumeration as the fallback for
///               small cyclic components — the paper's §4.1 "Ising methods"
///               promoted to a first-class backend.
///   kMeanField  damped mean-field fixed point: deterministic, sampling-free
///               approximate marginals for cheap hypothetical scoring.
///   kDispatch   exact-where-tractable router: every component that is
///               acyclic (after label reduction) or small enough to
///               enumerate is solved exactly; the rest run the chromatic
///               sampler with a per-component counter-derived seed. Merging
///               is deterministic — components write disjoint slots in a
///               fixed order — so the result is bit-identical at any thread
///               count.
///
/// The Gibbs and chromatic backends are thin adapters over the existing
/// kernels: same calls, same argument order, byte-identical outputs (pinned
/// by the seed suites). `CrfBackend::kAuto` preserves the legacy selection
/// rule (GibbsOptions::num_threads == 0 -> sequential, >= 1 -> chromatic),
/// which is what keeps default-configured runs unchanged.

#ifndef VERITAS_CRF_SOLVER_H_
#define VERITAS_CRF_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "crf/chromatic.h"
#include "crf/gibbs.h"
#include "crf/mrf.h"
#include "data/model.h"

namespace veritas {

/// Backend selector carried by ICrfOptions (and the wire protocol, where it
/// is spelled "auto" / "gibbs" / "chromatic" / "exact" / "mean_field" /
/// "dispatch"; unknown spellings are rejected, a missing key means kAuto).
enum class CrfBackend {
  kAuto,       ///< legacy rule: num_threads == 0 -> kGibbs, >= 1 -> kChromatic
  kGibbs,      ///< sequential Gibbs sampler
  kChromatic,  ///< chromatic counter-based parallel Gibbs
  kExact,      ///< tree BP + enumeration per component (errors when intractable)
  kMeanField,  ///< damped mean-field fixed point
  kDispatch,   ///< exact where tractable, chromatic sampling elsewhere
};

/// Canonical wire spelling of each backend, indexed by enumerator value
/// (codec, diagnostics, bench tables).
inline constexpr const char* kCrfBackendNames[] = {
    "auto", "gibbs", "chromatic", "exact", "mean_field", "dispatch"};

/// Canonical wire spelling of a backend: kCrfBackendNames[backend].
const char* CrfBackendName(CrfBackend backend);

/// Capability flags a caller can inspect before dispatching work.
struct SolverCaps {
  /// Marginals are exact (no sampling or variational error).
  bool exact = false;
  /// The backend exploits SolverOptions::pool when given one.
  bool supports_threads = false;
  /// Largest cyclic-component unlabeled-claim count the backend can solve
  /// (0 = unbounded). Beyond it, Marginals() errors (kExact) or falls back
  /// to sampling (kDispatch).
  size_t max_component_size = 0;
};

/// Result of one Marginals() call. `samples` is filled by the sampling
/// backends (same contract as RunGibbs) and empty for the deterministic
/// ones; ICrf synthesizes its warm-start configuration from the marginals
/// when no samples come back.
struct MarginalSet {
  std::vector<double> marginals;  ///< P(t_c = +1); labeled claims at 0/1
  SampleSet samples;              ///< retained configurations, may be empty
  bool exact = false;             ///< true when every claim was solved exactly
};

/// Per-call context and knobs. The sampling fields mirror the RunGibbs /
/// RunGibbsChromatic parameter lists exactly so the adapters stay
/// byte-identical to direct kernel calls.
struct SolverOptions {
  GibbsOptions gibbs;                       ///< schedule for sampling backends
  const SpinConfig* warm_start = nullptr;   ///< optional chain warm start
  /// Restrict resampling to these claims (sampling and mean-field backends
  /// only; the exact backends solve whole components and reject it).
  const std::vector<ClaimId>* restrict_claims = nullptr;
  Rng* rng = nullptr;                       ///< kGibbs stream (required)
  uint64_t draw_seed = 0;                   ///< kChromatic / kDispatch streams
  const ChromaticSchedule* schedule = nullptr;  ///< kChromatic (required)
  ThreadPool* pool = nullptr;               ///< optional worker pool
  /// Enumeration cap: largest unlabeled-claim count of a cyclic component
  /// the exact paths will brute-force (2^k states).
  size_t max_exact_claims = 20;
  /// Mean-field knobs: step size of the damped update
  /// m <- (1 - damping) m + damping tanh(f + sum J m), sweep cap, and the
  /// max per-claim magnetization change that counts as converged.
  double mean_field_damping = 0.7;
  size_t mean_field_max_sweeps = 200;
  double mean_field_tolerance = 1e-10;
};

/// Abstract marginal solver over the pairwise binary claim MRF.
class CrfSolver {
 public:
  virtual ~CrfSolver() = default;

  virtual const char* name() const = 0;
  virtual SolverCaps caps() const = 0;

  /// Computes per-claim marginals of `mrf` under the labels of `state`.
  /// Labeled claims come back at 0/1; unlabeled claims outside the swept
  /// scope keep their `state` probability.
  virtual Result<MarginalSet> Marginals(const ClaimMrf& mrf,
                                        const BeliefState& state,
                                        const SolverOptions& opts) const = 0;
};

/// The process-wide solver instance for a backend. kAuto resolves to the
/// sequential Gibbs adapter; callers wanting the legacy num_threads rule
/// must resolve kAuto themselves (ICrf does).
const CrfSolver& SolverFor(CrfBackend backend);

}  // namespace veritas

#endif  // VERITAS_CRF_SOLVER_H_
