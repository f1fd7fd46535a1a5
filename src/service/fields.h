/// \file
/// The serialized field lists (DESIGN.md §9, §10): every option struct,
/// wire result and checkpoint state struct names its fields exactly once,
/// in wire order, in a `VisitFields(v, s)` overload. A visitor `v` is any
/// object callable as `v("key", field)`; the archives that implement it are
/// the JSON codec (api/codec.h: JsonOut/JsonIn) and the checkpoint format
/// (service/checkpoint.h: BinaryOut/BinaryIn). Both formats therefore share
/// one field order: JSON writes a nested struct as a nested object, the
/// binary format writes it inline.
///
/// Adding a serialized field is one line here. The serialization test
/// (tests/api/serialization_test.cc) fills every visited field with random
/// values, round-trips it through all four archives, and fails when a
/// struct gains a member its visitor does not list.

#ifndef VERITAS_SERVICE_FIELDS_H_
#define VERITAS_SERVICE_FIELDS_H_

#include <cstddef>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "service/session_manager.h"

namespace veritas {

/// Archives tell a vector of structs (a counted sequence of visited
/// elements) from the vectors of scalars their backends write natively.
template <typename T>
struct IsVector : std::false_type {};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type {};

// ---- enum name tables ------------------------------------------------------
// kNames[i] is the JSON spelling of enumerator value i; the binary format
// writes the value as one byte. Every serialized enum is dense from 0, so
// the table size is also the binary range bound.

template <typename E>
struct EnumNames;

template <>
struct EnumNames<SessionMode> {
  static constexpr const char* kNames[] = {"batch", "streaming"};
};
template <>
struct EnumNames<UserSpec::Kind> {
  static constexpr const char* kNames[] = {"none", "oracle", "erroneous",
                                           "skipping"};
};
template <>
struct EnumNames<GuidanceVariant> {
  static constexpr const char* kNames[] = {"origin", "scalable",
                                           "parallel_partition"};
};
template <>
struct EnumNames<FanoutKernel> {
  static constexpr const char* kNames[] = {"per_candidate", "batched"};
};
template <>
struct EnumNames<StrategyKind> {
  static constexpr const char* kNames[] = {"random", "uncertainty",
                                           "info_gain", "source", "hybrid"};
};
template <>
struct EnumNames<CrfBackend> {
  static constexpr const auto& kNames = kCrfBackendNames;
};

template <typename E>
constexpr size_t EnumCount() {
  return std::size(EnumNames<E>::kNames);
}

/// The wire name of `value`.
template <typename E>
const char* EnumName(E value) {
  return EnumNames<E>::kNames[static_cast<size_t>(value)];
}

/// Looks `name` up in E's table; false when E has no such spelling.
template <typename E>
bool EnumFromName(const char* name, E* out) {
  for (size_t i = 0; i < EnumCount<E>(); ++i) {
    if (std::strcmp(EnumNames<E>::kNames[i], name) == 0) {
      *out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

// ---- options ---------------------------------------------------------------

template <typename V>
void VisitFields(V& v, GibbsOptions& s) {
  v("burn_in", s.burn_in);
  v("num_samples", s.num_samples);
  v("thin", s.thin);
  v("num_threads", s.num_threads);
}

template <typename V>
void VisitFields(V& v, CrfConfig& s) {
  v("l2_lambda", s.l2_lambda);
  v("coupling", s.coupling);
  v("prior_weight", s.prior_weight);
  v("prior_clamp", s.prior_clamp);
  v("labeled_weight", s.labeled_weight);
  v("unlabeled_weight_floor", s.unlabeled_weight_floor);
  v("unlabeled_confidence_scale", s.unlabeled_confidence_scale);
  v("unlabeled_mass_cap_ratio", s.unlabeled_mass_cap_ratio);
  v("max_pairs_per_source", s.max_pairs_per_source);
}

template <typename V>
void VisitFields(V& v, TronOptions& s) {
  v("max_iterations", s.max_iterations);
  v("gradient_tolerance", s.gradient_tolerance);
  v("initial_radius", s.initial_radius);
  v("cg_max_iterations", s.cg_max_iterations);
  v("cg_tolerance", s.cg_tolerance);
  v("eta0", s.eta0);
  v("eta1", s.eta1);
  v("eta2", s.eta2);
  v("sigma1", s.sigma1);
  v("sigma2", s.sigma2);
  v("sigma3", s.sigma3);
}

template <typename V>
void VisitFields(V& v, ICrfOptions& s) {
  v("crf", s.crf);
  v("gibbs", s.gibbs);
  v("hypothetical_gibbs", s.hypothetical_gibbs);
  v("tron", s.tron);
  v("max_em_iterations", s.max_em_iterations);
  v("em_tolerance", s.em_tolerance);
  v("fit_weights", s.fit_weights);
  v("backend", s.backend);
  v("hypothetical_backend", s.hypothetical_backend);
}

template <typename V>
void VisitFields(V& v, GuidanceConfig& s) {
  v("variant", s.variant);
  v("candidate_pool", s.candidate_pool);
  v("neighborhood_radius", s.neighborhood_radius);
  v("neighborhood_cap", s.neighborhood_cap);
  v("num_threads", s.num_threads);
  v("max_enumeration_claims", s.max_enumeration_claims);
  v("seed", s.seed);
  v("fanout", s.fanout);
  v("fanout_base_sweeps", s.fanout_base_sweeps);
  v("fanout_burn_in", s.fanout_burn_in);
  v("fanout_samples", s.fanout_samples);
}

template <typename V>
void VisitFields(V& v, TerminationOptions& s) {
  v("enable_urr", s.enable_urr);
  v("urr_threshold", s.urr_threshold);
  v("urr_patience", s.urr_patience);
  v("enable_cng", s.enable_cng);
  v("cng_threshold", s.cng_threshold);
  v("cng_patience", s.cng_patience);
  v("enable_pre", s.enable_pre);
  v("pre_streak", s.pre_streak);
  v("enable_pir", s.enable_pir);
  v("pir_threshold", s.pir_threshold);
  v("pir_folds", s.pir_folds);
  v("pir_interval", s.pir_interval);
  v("pir_patience", s.pir_patience);
}

template <typename V>
void VisitFields(V& v, ValidationOptions& s) {
  v("icrf", s.icrf);
  v("guidance", s.guidance);
  v("strategy", s.strategy);
  v("budget", s.budget);
  v("target_precision", s.target_precision);
  v("batch_size", s.batch_size);
  v("batch_benefit_weight", s.batch_benefit_weight);
  v("confirmation_interval", s.confirmation_interval);
  v("termination", s.termination);
  v("exact_entropy_trace", s.exact_entropy_trace);
  v("seed", s.seed);
}

template <typename V>
void VisitFields(V& v, StreamingOptions& s) {
  v("icrf", s.icrf);
  v("step_a", s.step_a);
  v("step_t0", s.step_t0);
  v("step_kappa", s.step_kappa);
  v("window_cap", s.window_cap);
  v("tron_iterations_per_arrival", s.tron_iterations_per_arrival);
  v("seed", s.seed);
}

template <typename V>
void VisitFields(V& v, UserSpec& s) {
  v("kind", s.kind);
  v("rate", s.rate);
  v("seed", s.seed);
  v("latency_ms", s.latency_ms);
}

template <typename V>
void VisitFields(V& v, SessionSpec& s) {
  v("mode", s.mode);
  v("user", s.user);
  v("streaming_label_interval", s.streaming_label_interval);
  v("validation", s.validation);
  v("streaming", s.streaming);
}

// ---- wire results ----------------------------------------------------------

template <typename V>
void VisitFields(V& v, StepAnswers& s) {
  v("claims", s.claims);
  v("answers", s.answers);
  v("skips", s.skips);
}

template <typename V>
void VisitFields(V& v, IterationRecord& s) {
  v("iteration", s.iteration);
  v("claims", s.claims);
  v("answers", s.answers);
  v("seconds", s.seconds);
  v("entropy", s.entropy);
  v("precision", s.precision);
  v("effort", s.effort);
  v("error_rate", s.error_rate);
  v("z_score", s.z_score);
  v("unreliable_ratio", s.unreliable_ratio);
  v("repairs", s.repairs);
  v("skips", s.skips);
  v("flagged", s.flagged);
  v("prediction_matched", s.prediction_matched);
  v("urr", s.urr);
  v("cng", s.cng);
  v("pre_streak", s.pre_streak);
  v("pir", s.pir);
}

/// `state` is a BeliefState: each archive supplies its own format for it
/// (JSON labels are -1/0/1, binary labels 0/1/2).
template <typename V>
void VisitFields(V& v, ValidationOutcome& s) {
  v("state", s.state);
  v("grounding", s.grounding);
  v("trace", s.trace);
  v("validations", s.validations);
  v("mistakes_made", s.mistakes_made);
  v("mistakes_detected", s.mistakes_detected);
  v("mistakes_repaired", s.mistakes_repaired);
  v("stop_reason", s.stop_reason);
  v("initial_precision", s.initial_precision);
  v("final_precision", s.final_precision);
}

template <typename V>
void VisitFields(V& v, ArrivalStats& s) {
  v("claim", s.claim);
  v("update_seconds", s.update_seconds);
  v("initial_prob", s.initial_prob);
}

template <typename V>
void VisitFields(V& v, StepResult& s) {
  v("done", s.done);
  v("stop_reason", s.stop_reason);
  v("awaiting_answers", s.awaiting_answers);
  v("candidates", s.candidates);
  v("batch", s.batch);
  v("iteration_completed", s.iteration_completed);
  v("record", s.record);
  v("arrival_processed", s.arrival_processed);
  v("arrival", s.arrival);
}

template <typename V>
void VisitFields(V& v, GroundingView& s) {
  v("grounding", s.grounding);
  v("probs", s.probs);
  v("precision", s.precision);
  v("labeled", s.labeled);
  v("num_claims", s.num_claims);
}

template <typename V>
void VisitFields(V& v, ServiceStats& s) {
  v("sessions_created", s.sessions_created);
  v("sessions_active", s.sessions_active);
  v("sessions_resident", s.sessions_resident);
  v("sessions_spilled", s.sessions_spilled);
  v("evictions", s.evictions);
  v("spill_restores", s.spill_restores);
  v("resident_bytes", s.resident_bytes);
  v("steps_served", s.steps_served);
  v("spill_bytes", s.spill_bytes);
  v("peak_resident_bytes", s.peak_resident_bytes);
}

template <typename V>
void VisitFields(V& v, SessionInfo& s) {
  v("id", s.id);
  v("mode", s.mode);
  v("resident", s.resident);
  v("steps_served", s.steps_served);
  v("footprint_bytes", s.footprint_bytes);
}

// ---- checkpoint-only state -------------------------------------------------

template <typename V>
void VisitFields(V& v, RngState& s) {
  v("s0", s.s[0]);
  v("s1", s.s[1]);
  v("s2", s.s[2]);
  v("s3", s.s[3]);
  v("has_cached_normal", s.has_cached_normal);
  v("cached_normal", s.cached_normal);
}

template <typename V>
void VisitFields(V& v, TerminationMonitorState& s) {
  v("previous_entropy", s.previous_entropy);
  v("last_urr", s.last_urr);
  v("urr_calm_rounds", s.urr_calm_rounds);
  v("last_cng_rate", s.last_cng_rate);
  v("cng_calm_rounds", s.cng_calm_rounds);
  v("prediction_streak", s.prediction_streak);
  v("previous_cv_precision", s.previous_cv_precision);
  v("last_pir", s.last_pir);
  v("pir_available", s.pir_available);
  v("pir_calm_rounds", s.pir_calm_rounds);
}

template <typename V>
void VisitFields(V& v, ValidationSessionState& s) {
  v("initialized", s.initialized);
  v("iteration", s.iteration);
  v("last_error_rate", s.last_error_rate);
  v("validations_since_confirmation", s.validations_since_confirmation);
  v("confirmed_labels", s.confirmed_labels);
  v("hybrid_z", s.hybrid_z);
  v("monitor", s.monitor);
  v("state", s.state);
  v("grounding", s.grounding);
  v("outcome", s.outcome);
  v("icrf_rng", s.icrf_rng);
  v("has_strategy_rng", s.has_strategy_rng);
  v("strategy_rng", s.strategy_rng);
  v("weights", s.weights);
}

template <typename V>
void VisitFields(V& v, StreamingWindowExample& s) {
  v("features", s.features);
  v("target", s.target);
  v("log_weight", s.log_weight);
}

template <typename V>
void VisitFields(V& v, StreamingEmState& s) {
  v("window", s.window);
  v("log_scale", s.log_scale);
  v("arrivals", s.arrivals);
}

}  // namespace veritas

#endif  // VERITAS_SERVICE_FIELDS_H_
