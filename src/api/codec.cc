#include "api/codec.h"

#include <limits>
#include <utility>

namespace veritas {

namespace {

Status RequireObject(const JsonValue& value, const char* what) {
  if (!value.is_object()) {
    return Status::InvalidArgument(std::string(what) + ": expected an object");
  }
  return Status::OK();
}

/// The envelope's api_version must be present and equal kApiVersion. The
/// comparison runs at full 64-bit width, so 2^32 + 1 is not taken for 1.
Status CheckApiVersion(const JsonValue& root, const char* what) {
  if (root.Find("api_version") == nullptr) {
    return Status::InvalidArgument(std::string(what) + ": missing api_version");
  }
  uint64_t version = 0;
  JsonIn in(root);
  in("api_version", version);
  VERITAS_RETURN_IF_ERROR(in.status());
  if (version != kApiVersion) {
    return Status::FailedPrecondition(
        std::string(what) + ": unsupported api_version " +
        std::to_string(version) +
        " (this build speaks " + std::to_string(kApiVersion) + ")");
  }
  return Status::OK();
}

// ---- hand-written formats --------------------------------------------------
// FactDatabase is built through accessors, and the metrics snapshot keeps
// its series in maps keyed by name; neither is a flat field list.

void EncodeFactDatabase(const FactDatabase& db, JsonWriter* w) {
  JsonOut out(w);
  w->BeginObject();
  w->Key("sources").BeginArray();
  for (size_t s = 0; s < db.num_sources(); ++s) {
    const Source& source = db.source(static_cast<SourceId>(s));
    w->BeginObject();
    out("name", source.name);
    out("features", source.features);
    w->EndObject();
  }
  w->EndArray();
  w->Key("documents").BeginArray();
  for (size_t d = 0; d < db.num_documents(); ++d) {
    const Document& document = db.document(static_cast<DocumentId>(d));
    w->BeginObject();
    out("source", document.source);
    out("features", document.features);
    w->EndObject();
  }
  w->EndArray();
  w->Key("claims").BeginArray();
  for (size_t c = 0; c < db.num_claims(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    w->BeginObject();
    out("text", db.claim(id).text);
    w->Key("truth").String(
        db.has_ground_truth(id) ? (db.ground_truth(id) ? "1" : "0") : "?");
    w->EndObject();
  }
  w->EndArray();
  w->Key("mentions").BeginArray();
  for (const Clique& clique : db.cliques()) {
    w->BeginObject();
    out("document", clique.document);
    out("claim", clique.claim);
    w->Key("stance").String(clique.stance == Stance::kSupport ? "support"
                                                              : "refute");
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

/// Runs `decode_one` over each object of the array `value[section]`; a
/// missing section is empty.
template <typename DecodeOne>
Status ForEachObject(const JsonValue& value, const char* section,
                     DecodeOne decode_one) {
  const JsonValue* items = value.Find(section);
  if (items == nullptr) return Status::OK();
  if (!items->is_array()) {
    return Status::InvalidArgument(std::string(section) +
                                   ": expected an array");
  }
  for (const JsonValue& item : items->items()) {
    VERITAS_RETURN_IF_ERROR(RequireObject(item, section));
    JsonIn in(item);
    VERITAS_RETURN_IF_ERROR(decode_one(in));
  }
  return Status::OK();
}

Status DecodeFactDatabase(const JsonValue& value, FactDatabase* db) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "db"));
  FactDatabase decoded;
  VERITAS_RETURN_IF_ERROR(ForEachObject(value, "sources", [&](JsonIn& in) {
    Source source;
    in("name", source.name);
    in("features", source.features);
    decoded.AddSource(std::move(source));
    return in.status();
  }));
  VERITAS_RETURN_IF_ERROR(ForEachObject(value, "documents", [&](JsonIn& in) {
    Document document;
    in("source", document.source);
    in("features", document.features);
    decoded.AddDocument(std::move(document));
    return in.status();
  }));
  VERITAS_RETURN_IF_ERROR(ForEachObject(value, "claims", [&](JsonIn& in) {
    Claim claim;
    std::string truth = "?";
    in("text", claim.text);
    in("truth", truth);
    VERITAS_RETURN_IF_ERROR(in.status());
    const ClaimId id = decoded.AddClaim(std::move(claim));
    if (truth == "0") {
      decoded.SetGroundTruth(id, false);
    } else if (truth == "1") {
      decoded.SetGroundTruth(id, true);
    } else if (truth != "?") {
      return Status::InvalidArgument("claim truth: expected \"?\"/\"0\"/\"1\"");
    }
    return Status::OK();
  }));
  VERITAS_RETURN_IF_ERROR(ForEachObject(value, "mentions", [&](JsonIn& in) {
    DocumentId document = 0;
    ClaimId claim = 0;
    std::string stance = "support";
    in("document", document);
    in("claim", claim);
    in("stance", stance);
    VERITAS_RETURN_IF_ERROR(in.status());
    if (stance != "support" && stance != "refute") {
      return Status::InvalidArgument("mention stance: expected support/refute");
    }
    return decoded.AddMention(
        document, claim,
        stance == "support" ? Stance::kSupport : Stance::kRefute);
  }));
  *db = std::move(decoded);
  return Status::OK();
}

void EncodeHistogramSnapshot(const HistogramSnapshot& hist, JsonWriter* w) {
  w->BeginObject();
  // The +Inf overflow bound has no JSON literal (the writer rejects
  // non-finite doubles); the wire carries the finite bounds only and the
  // decoder reappends +Inf — so "counts" has one more element than
  // "bounds".
  w->Key("bounds").BeginArray();
  for (size_t i = 0; i + 1 < hist.upper_bounds.size(); ++i) {
    w->Double(hist.upper_bounds[i]);
  }
  w->EndArray();
  JsonOut out(w);
  out("counts", hist.counts);
  out("sum", hist.sum);
  out("count", hist.count);
  w->EndObject();
}

Status DecodeHistogramSnapshot(const JsonValue& value, HistogramSnapshot* hist) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "histogram"));
  JsonIn in(value);
  hist->upper_bounds.clear();
  hist->counts.clear();
  in("bounds", hist->upper_bounds);
  in("counts", hist->counts);
  VERITAS_RETURN_IF_ERROR(in.status());
  hist->upper_bounds.push_back(std::numeric_limits<double>::infinity());
  if (hist->counts.size() != hist->upper_bounds.size()) {
    return Status::InvalidArgument("histogram: bounds/counts size mismatch");
  }
  in("sum", hist->sum);
  in("count", hist->count);
  return in.status();
}

void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot, JsonWriter* w) {
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w->Key(name).UInt(value);
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w->Key(name).Int(value);
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, hist] : snapshot.histograms) {
    w->Key(name);
    EncodeHistogramSnapshot(hist, w);
  }
  w->EndObject();
  w->EndObject();
}

Status DecodeMetricsSnapshot(const JsonValue& value, MetricsSnapshot* snapshot) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "metrics"));
  snapshot->counters.clear();
  snapshot->gauges.clear();
  snapshot->histograms.clear();
  if (const JsonValue* counters = value.Find("counters")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*counters, "counters"));
    for (const auto& [name, member] : counters->members()) {
      VERITAS_RETURN_IF_ERROR(Contextualize(
          JsonIn::Value(member, &snapshot->counters[name]), name));
    }
  }
  if (const JsonValue* gauges = value.Find("gauges")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*gauges, "gauges"));
    for (const auto& [name, member] : gauges->members()) {
      auto parsed = member.AsI64();
      if (!parsed.ok()) return Contextualize(parsed.status(), name);
      snapshot->gauges[name] = parsed.value();
    }
  }
  if (const JsonValue* histograms = value.Find("histograms")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*histograms, "histograms"));
    for (const auto& [name, member] : histograms->members()) {
      HistogramSnapshot hist;
      VERITAS_RETURN_IF_ERROR(DecodeHistogramSnapshot(member, &hist));
      snapshot->histograms[name] = std::move(hist);
    }
  }
  return Status::OK();
}

/// The "result_type" tag naming the active response alternative.
const char* ResultTypeName(const ApiResponse& response) {
  switch (response.result.index()) {
    case 1: return "create_session";
    case 2: return "step";
    case 3: return "ground";
    case 4: return "checkpoint";
    case 5: return "restore";
    case 6: return "stats";
    case 7: return "terminate";
    case 8: return "metrics";
    default: return "error";
  }
}

}  // namespace

// ---- wire.h helpers --------------------------------------------------------

const char* ApiMethodName(ApiMethod method) {
  switch (method) {
    case ApiMethod::kCreateSession: return "create_session";
    case ApiMethod::kAdvance: return "advance";
    case ApiMethod::kAnswer: return "answer";
    case ApiMethod::kGround: return "ground";
    case ApiMethod::kCheckpoint: return "checkpoint";
    case ApiMethod::kRestore: return "restore";
    case ApiMethod::kStats: return "stats";
    case ApiMethod::kTerminate: return "terminate";
    case ApiMethod::kMetrics: return "metrics";
  }
  return "stats";
}

ApiResponse MakeErrorResponse(uint64_t id, const Status& status) {
  ApiResponse response;
  response.id = id;
  ErrorResponse error;
  error.code = status.ok() ? StatusCode::kInternal : status.code();
  error.message = status.message();
  response.result = std::move(error);
  return response;
}

Status ToStatus(const ErrorResponse& error) {
  return Status(error.code, error.message);
}

// ---- BeliefState -----------------------------------------------------------

void EncodeBelief(const BeliefState& state, JsonWriter* w) {
  w->BeginObject();
  JsonOut out(w);
  out("probs", state.probs());
  w->Key("labels").BeginArray();
  for (size_t i = 0; i < state.num_claims(); ++i) {
    w->Int(static_cast<int64_t>(state.label(static_cast<ClaimId>(i))));
  }
  w->EndArray();
  w->EndObject();
}

Status DecodeBelief(const JsonValue& value, BeliefState* state) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "state"));
  std::vector<double> probs;
  JsonIn in(value);
  in("probs", probs);
  VERITAS_RETURN_IF_ERROR(in.status());
  std::vector<int64_t> labels;
  if (const JsonValue* v = value.Find("labels")) {
    if (!v->is_array()) {
      return Status::InvalidArgument("labels: expected an array");
    }
    for (const JsonValue& item : v->items()) {
      auto parsed = item.AsI64();
      if (!parsed.ok()) return Contextualize(parsed.status(), "labels");
      if (parsed.value() < -1 || parsed.value() > 1) {
        return Status::OutOfRange("labels: expected -1/0/1");
      }
      labels.push_back(parsed.value());
    }
  }
  if (labels.size() != probs.size()) {
    return Status::InvalidArgument("state: probs/labels size mismatch");
  }
  BeliefState decoded(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    const ClaimId id = static_cast<ClaimId>(i);
    if (labels[i] >= 0) decoded.SetLabel(id, labels[i] == 1);
    decoded.set_prob(id, probs[i]);
  }
  *state = std::move(decoded);
  return Status::OK();
}

// ---- envelopes -------------------------------------------------------------

Result<std::string> EncodeRequest(const ApiRequest& request) {
  JsonWriter w;
  JsonOut out(&w);
  w.BeginObject();
  out("api_version", request.api_version);
  out("id", request.id);
  // Omitted entirely when empty: untraced envelopes stay byte-identical to
  // the pre-tracing protocol (the parity suites pin this).
  if (!request.trace_id.empty()) out("trace_id", request.trace_id);
  // Dispatch key, not a defaultable enum field: DecodeRequest rejects a
  // missing or unknown method by hand.
  w.Key("method").String(ApiMethodName(request.method()));
  w.Key("params").BeginObject();
  std::visit(
      [&](const auto& params) {
        using T = std::decay_t<decltype(params)>;
        if constexpr (std::is_same_v<T, CreateSessionRequest>) {
          w.Key("db");
          EncodeFactDatabase(params.db, &w);
          out("spec", params.spec);
        } else if constexpr (std::is_same_v<T, AnswerRequest>) {
          out("session", params.session);
          out("answers", params.answers);
        } else if constexpr (std::is_same_v<T, CheckpointRequest>) {
          out("session", params.session);
          out("directory", params.directory);
        } else if constexpr (std::is_same_v<T, RestoreRequest>) {
          out("directory", params.directory);
        } else if constexpr (std::is_same_v<T, AdvanceRequest> ||
                             std::is_same_v<T, GroundRequest> ||
                             std::is_same_v<T, TerminateRequest>) {
          out("session", params.session);
        }  // StatsRequest / MetricsRequest: no params.
      },
      request.params);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

Result<ApiRequest> DecodeRequest(const std::string& json, uint64_t* id_out) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  VERITAS_RETURN_IF_ERROR(RequireObject(root, "request"));

  ApiRequest request;
  JsonIn in(root);
  in("id", request.id);
  VERITAS_RETURN_IF_ERROR(in.status());
  if (id_out != nullptr) *id_out = request.id;
  in("trace_id", request.trace_id);
  VERITAS_RETURN_IF_ERROR(in.status());
  VERITAS_RETURN_IF_ERROR(CheckApiVersion(root, "request"));

  std::string method;
  in("method", method);
  VERITAS_RETURN_IF_ERROR(in.status());
  if (method.empty()) {
    return Status::InvalidArgument("request: missing method");
  }

  // Missing params decodes as an empty object: every member is optional.
  const JsonValue empty;
  const JsonValue* params = root.Find("params");
  if (params == nullptr) params = &empty;
  if (params->kind() != JsonValue::Kind::kNull) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*params, "params"));
  }
  JsonIn p(*params);

  if (method == "create_session") {
    CreateSessionRequest create;
    if (const JsonValue* db = params->Find("db")) {
      VERITAS_RETURN_IF_ERROR(DecodeFactDatabase(*db, &create.db));
    }
    p("spec", create.spec);
    request.params = std::move(create);
  } else if (method == "advance") {
    AdvanceRequest advance;
    p("session", advance.session);
    request.params = advance;
  } else if (method == "answer") {
    AnswerRequest answer;
    p("session", answer.session);
    p("answers", answer.answers);
    request.params = std::move(answer);
  } else if (method == "ground") {
    GroundRequest ground;
    p("session", ground.session);
    request.params = ground;
  } else if (method == "checkpoint") {
    CheckpointRequest checkpoint;
    p("session", checkpoint.session);
    p("directory", checkpoint.directory);
    request.params = std::move(checkpoint);
  } else if (method == "restore") {
    RestoreRequest restore;
    p("directory", restore.directory);
    request.params = std::move(restore);
  } else if (method == "stats") {
    request.params = StatsRequest{};
  } else if (method == "metrics") {
    request.params = MetricsRequest{};
  } else if (method == "terminate") {
    TerminateRequest terminate;
    p("session", terminate.session);
    request.params = terminate;
  } else {
    return Status::Unimplemented("request: unknown method \"" + method + "\"");
  }
  VERITAS_RETURN_IF_ERROR(p.status());
  return request;
}

Result<std::string> EncodeResponse(const ApiResponse& response) {
  JsonWriter w;
  JsonOut out(&w);
  w.BeginObject();
  out("api_version", response.api_version);
  out("id", response.id);
  if (!response.trace_id.empty()) out("trace_id", response.trace_id);
  out("ok", !IsError(response));
  if (IsError(response)) {
    const ErrorResponse& error = std::get<ErrorResponse>(response.result);
    w.Key("error").BeginObject();
    out("code", static_cast<uint64_t>(error.code));
    // Display duplicate of the numeric "code", which DecodeResponse
    // range-validates; the name is never read back.
    w.Key("status").String(StatusCodeName(error.code));
    out("message", error.message);
    w.EndObject();
  } else {
    // Dispatch key: DecodeResponse rejects unknown result types by hand.
    w.Key("result_type").String(ResultTypeName(response));
    w.Key("result");
    std::visit(
        [&](const auto& result) {
          using T = std::decay_t<decltype(result)>;
          if constexpr (std::is_same_v<T, StepResponse>) {
            out.Value(result.step);
          } else if constexpr (std::is_same_v<T, GroundResponse>) {
            out.Value(result.view);
          } else if constexpr (std::is_same_v<T, TerminateResponse>) {
            out.Value(result.outcome);
          } else if constexpr (std::is_same_v<T, MetricsResponse>) {
            EncodeMetricsSnapshot(result.snapshot, &w);
          } else {
            w.BeginObject();
            if constexpr (std::is_same_v<T, CreateSessionResponse> ||
                          std::is_same_v<T, RestoreResponse>) {
              out("session", result.session);
            } else if constexpr (std::is_same_v<T, StatsResponse>) {
              out("stats", result.stats);
              out("sessions", result.sessions);
            }  // CheckpointResponse: empty object.
            w.EndObject();
          }
        },
        response.result);
  }
  w.EndObject();
  return w.Take();
}

Result<ApiResponse> DecodeResponse(const std::string& json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  VERITAS_RETURN_IF_ERROR(RequireObject(root, "response"));

  ApiResponse response;
  JsonIn in(root);
  in("id", response.id);
  in("trace_id", response.trace_id);
  VERITAS_RETURN_IF_ERROR(in.status());
  VERITAS_RETURN_IF_ERROR(CheckApiVersion(root, "response"));

  bool ok = false;
  in("ok", ok);
  VERITAS_RETURN_IF_ERROR(in.status());
  if (!ok) {
    const JsonValue* error = root.Find("error");
    if (error == nullptr) {
      return Status::InvalidArgument("response: failed without an error body");
    }
    VERITAS_RETURN_IF_ERROR(RequireObject(*error, "error"));
    uint64_t code = static_cast<uint64_t>(StatusCode::kInternal);
    ErrorResponse decoded;
    JsonIn e(*error);
    e("code", code);
    e("message", decoded.message);
    VERITAS_RETURN_IF_ERROR(e.status());
    if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
      return Status::InvalidArgument("error: unknown status code " +
                                     std::to_string(code));
    }
    decoded.code = static_cast<StatusCode>(code);
    response.result = std::move(decoded);
    return response;
  }

  std::string result_type;
  in("result_type", result_type);
  VERITAS_RETURN_IF_ERROR(in.status());
  const JsonValue* result = root.Find("result");
  if (result == nullptr) {
    return Status::InvalidArgument("response: missing result");
  }
  JsonIn r(*result);
  if (result_type == "create_session" || result_type == "restore" ||
      result_type == "stats") {
    VERITAS_RETURN_IF_ERROR(RequireObject(*result, "result"));
  }
  if (result_type == "create_session") {
    CreateSessionResponse create;
    r("session", create.session);
    response.result = create;
  } else if (result_type == "step") {
    StepResponse step;
    in("result", step.step);
    response.result = std::move(step);
  } else if (result_type == "ground") {
    GroundResponse ground;
    in("result", ground.view);
    response.result = std::move(ground);
  } else if (result_type == "checkpoint") {
    response.result = CheckpointResponse{};
  } else if (result_type == "restore") {
    RestoreResponse restore;
    r("session", restore.session);
    response.result = restore;
  } else if (result_type == "stats") {
    StatsResponse stats;
    r("stats", stats.stats);
    r("sessions", stats.sessions);
    response.result = std::move(stats);
  } else if (result_type == "terminate") {
    TerminateResponse terminate;
    in("result", terminate.outcome);
    response.result = std::move(terminate);
  } else if (result_type == "metrics") {
    MetricsResponse metrics;
    VERITAS_RETURN_IF_ERROR(DecodeMetricsSnapshot(*result, &metrics.snapshot));
    response.result = std::move(metrics);
  } else {
    return Status::Unimplemented("response: unknown result_type \"" +
                                 result_type + "\"");
  }
  VERITAS_RETURN_IF_ERROR(in.status());
  VERITAS_RETURN_IF_ERROR(r.status());
  return response;
}

}  // namespace veritas
