#include "crf/solver.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace veritas {
namespace {

// ---- shared component machinery --------------------------------------------

/// Connected components of the coupling graph, indexed in first-seen claim-id
/// order; member lists are id-ascending by construction.
std::vector<std::vector<ClaimId>> ConnectedComponents(const ClaimMrf& mrf) {
  const size_t n = mrf.num_claims();
  UnionFind uf(n);
  for (const ClaimMrf::Edge& edge : mrf.edges) uf.Union(edge.a, edge.b);
  std::vector<std::vector<ClaimId>> members;
  std::vector<size_t> remap(n, SIZE_MAX);
  for (size_t c = 0; c < n; ++c) {
    const size_t root = uf.Find(c);
    if (remap[root] == SIZE_MAX) {
      remap[root] = members.size();
      members.emplace_back();
    }
    members[remap[root]].push_back(static_cast<ClaimId>(c));
  }
  return members;
}

/// One component's self-contained sub-problem: local MRF (adjacency built)
/// and belief state, claim i of the component mapped to local id i.
struct SubProblem {
  ClaimMrf mrf;
  BeliefState state;
};

SubProblem ExtractComponent(const ClaimMrf& mrf, const BeliefState& state,
                            const std::vector<ClaimId>& component,
                            std::vector<size_t>* local_index) {
  const size_t m = component.size();
  SubProblem sub;
  sub.mrf.field.resize(m);
  sub.state = BeliefState(m);
  for (size_t i = 0; i < m; ++i) {
    const ClaimId id = component[i];
    (*local_index)[id] = i;
    sub.mrf.field[i] = mrf.field[id];
    if (state.IsLabeled(id)) {
      sub.state.SetLabel(static_cast<ClaimId>(i),
                         state.label(id) == ClaimLabel::kCredible);
    } else {
      sub.state.set_prob(static_cast<ClaimId>(i), state.prob(id));
    }
  }
  for (const ClaimMrf::Edge& edge : mrf.edges) {
    const size_t a = (*local_index)[edge.a];
    const size_t b = (*local_index)[edge.b];
    if (a == SIZE_MAX || b == SIZE_MAX) continue;
    sub.mrf.edges.push_back(
        {static_cast<ClaimId>(a), static_cast<ClaimId>(b), edge.j});
  }
  sub.mrf.RebuildAdjacency();
  for (const ClaimId id : component) (*local_index)[id] = SIZE_MAX;
  return sub;
}

/// Exact marginals of one component: tree BP first (label-reduced forests,
/// linear time), enumeration for small cyclic components. The enumeration
/// cap applies to the component's unlabeled count, not the database's.
Result<std::vector<double>> ExactComponentMarginals(const SubProblem& sub,
                                                    size_t max_exact_claims) {
  auto tree = TreeSumProduct(sub.mrf, sub.state);
  if (tree.ok()) return std::move(tree.value().marginals);
  auto exact = ExactInference(sub.mrf, sub.state, max_exact_claims);
  if (!exact.ok()) return exact.status();
  return std::move(exact.value().marginals);
}

// ---- sampling adapters -----------------------------------------------------

class GibbsSolver : public CrfSolver {
 public:
  const char* name() const override { return "gibbs"; }
  SolverCaps caps() const override { return {false, false, 0}; }

  Result<MarginalSet> Marginals(const ClaimMrf& mrf, const BeliefState& state,
                                const SolverOptions& opts) const override {
    if (opts.rng == nullptr) {
      return Status::InvalidArgument("GibbsSolver: null rng");
    }
    auto samples = RunGibbs(mrf, state, opts.warm_start, opts.restrict_claims,
                            opts.gibbs, opts.rng);
    if (!samples.ok()) return samples.status();
    MarginalSet result;
    result.samples = std::move(samples).value();
    result.marginals = result.samples.Marginals(state);
    return result;
  }
};

class ChromaticSolver : public CrfSolver {
 public:
  const char* name() const override { return "chromatic"; }
  SolverCaps caps() const override { return {false, true, 0}; }

  Result<MarginalSet> Marginals(const ClaimMrf& mrf, const BeliefState& state,
                                const SolverOptions& opts) const override {
    if (opts.schedule == nullptr) {
      return Status::InvalidArgument("ChromaticSolver: null schedule");
    }
    auto chromatic =
        RunGibbsChromatic(mrf, state, opts.warm_start, opts.restrict_claims,
                          opts.gibbs, opts.draw_seed, *opts.schedule, opts.pool);
    if (!chromatic.ok()) return chromatic.status();
    MarginalSet result;
    result.samples = std::move(chromatic.value().samples);
    result.marginals = std::move(chromatic.value().marginals);
    return result;
  }
};

// ---- exact backend ---------------------------------------------------------

class ExactSolver : public CrfSolver {
 public:
  const char* name() const override { return "exact"; }
  SolverCaps caps() const override { return {true, false, 20}; }

  Result<MarginalSet> Marginals(const ClaimMrf& mrf, const BeliefState& state,
                                const SolverOptions& opts) const override {
    if (state.num_claims() != mrf.num_claims()) {
      return Status::InvalidArgument("ExactSolver: state size mismatch");
    }
    if (opts.restrict_claims != nullptr) {
      return Status::InvalidArgument(
          "ExactSolver: restricted scopes are not supported; exact marginals "
          "are solved per whole component");
    }
    MarginalSet result;
    result.exact = true;
    result.marginals.resize(mrf.num_claims());
    std::vector<size_t> local_index(mrf.num_claims(), SIZE_MAX);
    for (const std::vector<ClaimId>& component : ConnectedComponents(mrf)) {
      const SubProblem sub = ExtractComponent(mrf, state, component,
                                              &local_index);
      auto marginals = ExactComponentMarginals(sub, opts.max_exact_claims);
      if (!marginals.ok()) return marginals.status();
      for (size_t i = 0; i < component.size(); ++i) {
        result.marginals[component[i]] = marginals.value()[i];
      }
    }
    return result;
  }
};

// ---- mean-field backend ----------------------------------------------------

class MeanFieldSolver : public CrfSolver {
 public:
  const char* name() const override { return "mean_field"; }
  SolverCaps caps() const override { return {false, false, 0}; }

  Result<MarginalSet> Marginals(const ClaimMrf& mrf, const BeliefState& state,
                                const SolverOptions& opts) const override {
    const size_t n = mrf.num_claims();
    if (state.num_claims() != n) {
      return Status::InvalidArgument("MeanFieldSolver: state size mismatch");
    }
    if (!mrf.adjacency_built()) {
      return Status::FailedPrecondition("MeanFieldSolver: adjacency not built");
    }
    // Magnetizations m_c = E[t_c] in [-1, 1]: labels clamped at +-1,
    // everything else initialized from the carried-over probabilities so the
    // fixed point is warm-started the same way the Gibbs chain is.
    std::vector<double> magnet(n);
    for (size_t c = 0; c < n; ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      if (state.IsLabeled(id)) {
        magnet[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : -1.0;
      } else {
        magnet[c] = 2.0 * state.prob(id) - 1.0;
      }
    }
    // Swept claims: the restriction (unlabeled members only) or all
    // unlabeled claims. Everything else stays frozen at its initialization.
    std::vector<ClaimId> sweep;
    if (opts.restrict_claims != nullptr) {
      sweep.reserve(opts.restrict_claims->size());
      for (const ClaimId id : *opts.restrict_claims) {
        if (id < n && !state.IsLabeled(id)) sweep.push_back(id);
      }
    } else {
      for (size_t c = 0; c < n; ++c) {
        if (!state.IsLabeled(static_cast<ClaimId>(c))) {
          sweep.push_back(static_cast<ClaimId>(c));
        }
      }
    }
    // Damped coordinate ascent on the naive variational free energy:
    // m_c <- (1 - damping) m_c + damping tanh(f_c + sum_n J_cn m_n).
    // In-place (Gauss-Seidel) sweeps in claim-id order converge faster than
    // Jacobi updates and keep the iteration deterministic.
    const double damping = std::clamp(opts.mean_field_damping, 1e-3, 1.0);
    for (size_t it = 0; it < opts.mean_field_max_sweeps; ++it) {
      double max_change = 0.0;
      for (const ClaimId c : sweep) {
        double neighbor_term = 0.0;
        for (size_t k = mrf.offsets[c]; k < mrf.offsets[c + 1]; ++k) {
          neighbor_term += mrf.couplings[k] * magnet[mrf.neighbors[k]];
        }
        const double target = std::tanh(mrf.field[c] + neighbor_term);
        const double updated = (1.0 - damping) * magnet[c] + damping * target;
        max_change = std::max(max_change, std::fabs(updated - magnet[c]));
        magnet[c] = updated;
      }
      if (max_change < opts.mean_field_tolerance) break;
    }
    MarginalSet result;
    result.marginals.resize(n);
    for (size_t c = 0; c < n; ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      if (state.IsLabeled(id)) {
        result.marginals[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0;
      } else {
        result.marginals[c] = 0.5 * (1.0 + magnet[c]);
      }
    }
    // Un-swept unlabeled claims must keep their state estimate exactly
    // (their magnetization was never updated, so this is a no-op up to
    // rounding; write it explicitly to honor the contract bit-for-bit).
    if (opts.restrict_claims != nullptr) {
      std::vector<uint8_t> swept(n, 0);
      for (const ClaimId c : sweep) swept[c] = 1;
      for (size_t c = 0; c < n; ++c) {
        const ClaimId id = static_cast<ClaimId>(c);
        if (!state.IsLabeled(id) && !swept[c]) result.marginals[c] = state.prob(id);
      }
    }
    return result;
  }
};

// ---- dispatch backend ------------------------------------------------------

/// Stream constant decorrelating per-component chromatic seeds from the
/// caller's draw_seed (arbitrary odd 64-bit salt).
constexpr uint64_t kDispatchSeedStream = 0x9e6b1a5d4f3c2b17ULL;

class DispatchSolver : public CrfSolver {
 public:
  const char* name() const override { return "dispatch"; }
  SolverCaps caps() const override { return {false, true, 0}; }

  Result<MarginalSet> Marginals(const ClaimMrf& mrf, const BeliefState& state,
                                const SolverOptions& opts) const override {
    const size_t n = mrf.num_claims();
    if (state.num_claims() != n) {
      return Status::InvalidArgument("DispatchSolver: state size mismatch");
    }
    if (!mrf.adjacency_built()) {
      return Status::FailedPrecondition("DispatchSolver: adjacency not built");
    }
    if (opts.restrict_claims != nullptr) {
      return Status::InvalidArgument(
          "DispatchSolver: restricted scopes are not supported; routing is "
          "per whole component");
    }
    const std::vector<std::vector<ClaimId>> components =
        ConnectedComponents(mrf);
    MarginalSet result;
    result.exact = true;
    result.marginals.resize(n);

    // Solve each component independently and scatter into disjoint slots of
    // the shared output. The per-component work is a deterministic function
    // of (mrf, state, opts.draw_seed, component index) — the sampled
    // fallback draws from CounterUniform streams seeded per component — so
    // the merged marginals are bit-identical at any thread count and any
    // completion order.
    std::vector<Status> statuses(components.size(), Status::OK());
    std::vector<uint8_t> was_exact(components.size(), 1);
    auto solve_component = [&](size_t k) {
      std::vector<size_t> local_index(n, SIZE_MAX);
      const std::vector<ClaimId>& component = components[k];
      const SubProblem sub =
          ExtractComponent(mrf, state, component, &local_index);
      auto exact = ExactComponentMarginals(sub, opts.max_exact_claims);
      std::vector<double> marginals;
      if (exact.ok()) {
        marginals = std::move(exact).value();
      } else {
        // Cyclic and too large to enumerate: chromatic sampling over the
        // component's sub-MRF, warm-started from the caller's configuration.
        was_exact[k] = 0;
        SpinConfig warm;
        if (opts.warm_start != nullptr && opts.warm_start->size() == n) {
          warm.resize(component.size());
          for (size_t i = 0; i < component.size(); ++i) {
            warm[i] = (*opts.warm_start)[component[i]];
          }
        }
        const ChromaticSchedule schedule = BuildChromaticSchedule(sub.mrf);
        auto sampled = RunGibbsChromatic(
            sub.mrf, sub.state, warm.empty() ? nullptr : &warm, nullptr,
            opts.gibbs, CounterU64(opts.draw_seed, kDispatchSeedStream, k),
            schedule, nullptr);
        if (!sampled.ok()) {
          statuses[k] = sampled.status();
          return;
        }
        marginals = std::move(sampled.value().marginals);
      }
      for (size_t i = 0; i < component.size(); ++i) {
        result.marginals[component[i]] = marginals[i];
      }
    };
    if (opts.pool != nullptr && opts.pool->num_threads() > 1 &&
        components.size() > 1) {
      opts.pool->ParallelFor(components.size(), solve_component);
    } else {
      for (size_t k = 0; k < components.size(); ++k) solve_component(k);
    }
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    for (const uint8_t exact : was_exact) {
      if (!exact) result.exact = false;
    }
    return result;
  }
};

}  // namespace

const char* CrfBackendName(CrfBackend backend) {
  return kCrfBackendNames[static_cast<size_t>(backend)];
}

const CrfSolver& SolverFor(CrfBackend backend) {
  static const GibbsSolver gibbs;
  static const ChromaticSolver chromatic;
  static const ExactSolver exact;
  static const MeanFieldSolver mean_field;
  static const DispatchSolver dispatch;
  switch (backend) {
    case CrfBackend::kAuto:
    case CrfBackend::kGibbs: return gibbs;
    case CrfBackend::kChromatic: return chromatic;
    case CrfBackend::kExact: return exact;
    case CrfBackend::kMeanField: return mean_field;
    case CrfBackend::kDispatch: return dispatch;
  }
  return gibbs;
}

}  // namespace veritas
