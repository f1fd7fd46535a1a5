#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "api/wire.h"
#include "stats.h"

namespace vbench {

using veritas::ApiMethod;
using veritas::MetricsSnapshot;

namespace {

double NsToMs(double ns) { return ns / 1e6; }

bool IsStep(ApiMethod method) {
  return method == ApiMethod::kAdvance || method == ApiMethod::kAnswer;
}

/// Sum and count added between two snapshots, over every histogram whose
/// key starts with `prefix` (so labelled families merge).
struct Delta {
  double sum = 0.0;
  double count = 0.0;
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

Delta HistogramDelta(const MetricsSnapshot& before,
                     const MetricsSnapshot& after, const std::string& prefix) {
  Delta delta;
  for (const auto& [key, hist] : after.histograms) {
    if (key.rfind(prefix, 0) != 0) continue;
    delta.sum += hist.sum;
    delta.count += static_cast<double>(hist.count);
    auto it = before.histograms.find(key);
    if (it != before.histograms.end()) {
      delta.sum -= it->second.sum;
      delta.count -= static_cast<double>(it->second.count);
    }
  }
  return delta;
}

double CounterDelta(const MetricsSnapshot& before,
                    const MetricsSnapshot& after, const std::string& prefix) {
  double delta = 0.0;
  for (const auto& [key, value] : after.counters) {
    if (key.rfind(prefix, 0) != 0) continue;
    delta += static_cast<double>(value);
    auto it = before.counters.find(key);
    if (it != before.counters.end()) delta -= static_cast<double>(it->second);
  }
  return delta;
}

/// Per span name: how many, their total duration and total self time (ns).
struct NameTotals {
  double count = 0.0;
  double duration_ns = 0.0;
  double self_ns = 0.0;
  double mean_ms() const { return count > 0 ? NsToMs(duration_ns / count) : 0.0; }
  double mean_self_ms() const { return count > 0 ? NsToMs(self_ns / count) : 0.0; }
};

std::string Format(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

PhaseSamples Pool(const std::vector<ClientResult>& clients) {
  PhaseSamples samples;
  for (const ClientResult& client : clients) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&samples.question_ms, client.question_ms);
    append(&samples.open_ms, client.open_ms);
    append(&samples.ground_ms, client.ground_ms);
    append(&samples.precisions, client.precisions);
    append(&samples.entropy_drops, client.entropy_drops);
    samples.calls.insert(samples.calls.end(), client.calls.begin(),
                         client.calls.end());
    if (client.active_s > 0) {
      samples.steps_per_s += static_cast<double>(client.steps) / client.active_s;
      samples.sessions_per_s +=
          static_cast<double>(client.sessions) / client.active_s;
    }
    samples.sessions += client.sessions;
    for (const auto& [reason, count] : client.stop_reasons) {
      samples.stop_reasons[reason] += count;
    }
    samples.attempted += client.calls.size();
    samples.failed += client.failed;
  }
  return samples;
}

std::vector<Metric> EndToEndMetrics(const PhaseSamples& s, double setup_s,
                                    double peak_rss_mb) {
  const double attempted = static_cast<double>(std::max<size_t>(1, s.attempted));
  return {
      {"question_p50_ms", "ms", Median(s.question_ms)},
      {"question_p90_ms", "ms", Percentile(s.question_ms, 90.0)},
      {"open_p50_ms", "ms", Median(s.open_ms)},
      {"ground_p50_ms", "ms", Median(s.ground_ms)},
      {"steps_per_s", "steps/s", s.steps_per_s},
      {"sessions_per_s", "sessions/s", s.sessions_per_s},
      {"precision_mean", "ratio", Mean(s.precisions)},
      {"success_ratio", "ratio", 1.0 - static_cast<double>(s.failed) / attempted},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

std::vector<Metric> PerLayerMetrics(const TracedPhase& phase,
                                    std::vector<std::string>* record,
                                    std::vector<std::string>* failures) {
  const PhaseSamples& traced = *phase.traced;
  const std::map<uint64_t, int64_t> self = SelfTimesNs(phase.spans);

  std::map<std::string, ApiMethod> method_of;  // trace id -> method
  double steps = 0.0;
  Delta client_encode, client_decode, create_bytes, step_bytes, ground_bytes;
  for (const CallRecord& call : traced.calls) {
    if (call.trace_id.empty()) continue;
    method_of[call.trace_id] = call.method;
    client_encode.sum += static_cast<double>(call.encode_ns);
    client_decode.sum += static_cast<double>(call.decode_ns);
    client_encode.count += 1;
    client_decode.count += 1;
    if (call.method == ApiMethod::kCreateSession) {
      create_bytes.sum += static_cast<double>(call.request_bytes);
      create_bytes.count += 1;
    } else if (IsStep(call.method)) {
      steps += 1;
      step_bytes.sum += static_cast<double>(call.response_bytes);
      step_bytes.count += 1;
    } else if (call.method == ApiMethod::kGround) {
      ground_bytes.sum += static_cast<double>(call.response_bytes);
      ground_bytes.count += 1;
    }
  }

  // Span totals by name, and the question-time breakdown over step
  // requests: every span of a step request's trace lands in one layer.
  std::map<std::string, NameTotals> by_name;
  std::map<uint64_t, double> children_ns;  // parent id -> children's total
  for (const Span& span : phase.spans) {
    if (span.parent != 0) {
      children_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> step_layers;  // layer -> ns over step traces
  double step_rtt_ns = 0.0;
  size_t negative = 0;
  const Delta wait = HistogramDelta(phase.before, phase.after,
                                    "veritas_queue_wait_seconds");
  for (const Span& span : phase.spans) {
    NameTotals& totals = by_name[span.name];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const double own = static_cast<double>(self.at(span.id));
    totals.count += 1;
    totals.duration_ns += duration;
    totals.self_ns += own;

    auto method = method_of.find(span.trace_id);
    const bool step = method != method_of.end() && IsStep(method->second);
    if (span.name == "client.call") {
      // Raw remainder: the round trip minus its codec and the outermost
      // server span. Negative means the spans are mis-nested.
      if (duration - children_ns[span.id] < 0) ++negative;
      if (step) step_rtt_ns += duration;
    }
    if (!step) continue;
    std::string layer;
    if (span.name == "client.call") {
      layer = "api transport";
    } else if (span.name == "api.client_encode" ||
               span.name == "api.client_decode" ||
               span.name == "api.server_decode" ||
               span.name == "api.server_encode" ||
               span.name == "backend.frame") {
      layer = "api codec";
    } else if (span.name == "fleet.router") {
      layer = "fleet router";
    } else if (span.name == "service.checkpoint") {
      layer = "service checkpoint";
    } else {
      layer = "service+core step";
    }
    step_layers[layer] += own;
  }
  if (negative > 0) {
    failures->push_back(std::to_string(negative) +
                        " requests show a negative transport remainder");
  }
  // Split the step dispatch into queue wait and the step itself.
  const double step_wait_ns = wait.mean() * 1e9 * steps;
  step_layers["service queue wait"] =
      std::min(step_wait_ns, step_layers["service+core step"]);
  step_layers["service+core step"] -= step_layers["service queue wait"];
  record->push_back("question time by layer (over " +
                    Format(steps) + " traced step requests, " +
                    Format(NsToMs(step_rtt_ns / std::max(1.0, steps))) +
                    " ms each):");
  for (const auto& [layer, ns] : step_layers) {
    record->push_back("  " + layer + ": " +
                      Format(NsToMs(ns / std::max(1.0, steps))) + " ms/step, " +
                      Format(step_rtt_ns > 0 ? 100.0 * ns / step_rtt_ns : 0.0) +
                      "% of step round trips");
  }

  const double wait_ms = wait.mean() * 1e3;
  const auto core = [&](const char* kind) {
    auto it = phase.core_ms.find(kind);
    return it == phase.core_ms.end() ? 0.0 : Mean(it->second);
  };
  const auto mean_span = [&](const char* span_name) {
    auto it = by_name.find(span_name);
    return it == by_name.end() ? 0.0 : it->second.mean_ms();
  };
  const Delta sweeps =
      HistogramDelta(phase.before, phase.after, "veritas_crf_sweep_seconds");
  const Delta service = HistogramDelta(phase.before, phase.after,
                                       "veritas_queue_service_seconds");
  const Delta save = HistogramDelta(phase.before, phase.after,
                                    "veritas_checkpoint_save_seconds");
  const Delta checkpoint_bytes =
      HistogramDelta(phase.before, phase.after, "veritas_checkpoint_bytes");
  const double per_step = std::max(1.0, steps);
  const double untraced_q = Median(phase.untraced->question_ms);
  const double traced_q = Median(traced.question_ms);

  return {
      {"api.client_encode_ms", "ms", NsToMs(client_encode.mean())},
      {"api.client_decode_ms", "ms", NsToMs(client_decode.mean())},
      {"api.server_decode_ms", "ms", mean_span("api.server_decode")},
      {"api.server_encode_ms", "ms", mean_span("api.server_encode")},
      {"api.transport_ms", "ms", by_name["client.call"].mean_self_ms()},
      {"api.create_bytes", "bytes", create_bytes.mean()},
      {"api.step_bytes", "bytes", step_bytes.mean()},
      {"api.ground_bytes", "bytes", ground_bytes.mean()},
      {"fleet.router_self_ms", "ms", by_name["fleet.router"].mean_self_ms()},
      {"fleet.checkpoints_per_step", "count",
       static_cast<double>(phase.checkpoint_frames) / per_step},
      {"fleet.failovers", "count", static_cast<double>(phase.failovers)},
      {"service.queue_wait_ms", "ms", wait_ms},
      {"service.queue_service_ms", "ms", service.mean() * 1e3},
      {"service.queue_rejected", "count",
       CounterDelta(phase.before, phase.after, "veritas_queue_rejected_total")},
      {"service.checkpoint_save_ms", "ms", save.mean() * 1e3},
      {"service.checkpoint_bytes", "bytes", checkpoint_bytes.mean()},
      {"service.create_ms", "ms", mean_span("service.create_session")},
      {"service.terminate_ms", "ms", mean_span("service.terminate")},
      {"service.peak_resident_bytes", "bytes",
       static_cast<double>(phase.peak_resident_bytes)},
      {"core.plan_ms", "ms", core("plan")},
      {"core.complete_ms", "ms", core("complete")},
      {"core.arrival_ms", "ms", core("arrival")},
      {"core.ground_ms", "ms", core("ground")},
      {"core.entropy_drop_per_question", "nats", Mean(traced.entropy_drops)},
      {"crf.sweep_ms", "ms", sweeps.mean() * 1e3},
      {"crf.sweeps_per_step", "count", sweeps.count / per_step},
      {"crf.backend_selected", "count",
       CounterDelta(phase.before, phase.after,
                    "veritas_crf_backend_selected_total") /
           per_step},
      {"obs.trace_overhead_pct", "%",
       untraced_q > 0 ? 100.0 * (traced_q - untraced_q) / untraced_q : 0.0},
  };
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<size_t>(1, attempted)
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace vbench
