#include "service/checkpoint.h"

#include <filesystem>

#include "data/io.h"
#include "obs/metrics.h"

namespace veritas {

namespace {

constexpr uint8_t kMagic[4] = {'V', 'C', 'K', 'P'};

/// Registry handles (DESIGN.md §14). Instrumented here — not at call sites —
/// so manager spills, wire-requested checkpoints and router failover
/// checkpoints all count through the same family.
struct CheckpointMetrics {
  MetricsRegistry::Counter* saves;
  MetricsRegistry::Counter* loads;
  MetricsRegistry::Histogram* save_seconds;
  MetricsRegistry::Histogram* load_seconds;
  MetricsRegistry::Histogram* bytes;
};

const CheckpointMetrics& Metrics() {
  static const CheckpointMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    CheckpointMetrics m;
    m.saves = registry.counter("veritas_checkpoint_saves_total");
    m.loads = registry.counter("veritas_checkpoint_loads_total");
    m.save_seconds = registry.histogram("veritas_checkpoint_save_seconds");
    m.load_seconds = registry.histogram("veritas_checkpoint_load_seconds");
    m.bytes = registry.histogram("veritas_checkpoint_bytes");
    return m;
  }();
  return metrics;
}

}  // namespace

size_t CheckpointSizeBytes(const std::string& directory) {
  std::error_code ec;
  size_t total = 0;
  std::filesystem::recursive_directory_iterator it(directory, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const uintmax_t size = entry.file_size(entry_ec);
    if (!entry_ec) total += static_cast<size_t>(size);
  }
  return total;
}

void WriteBelief(BinaryWriter* w, const BeliefState& state) {
  w->VecF64(state.probs());
  std::vector<uint8_t> labels(state.num_claims());
  for (size_t c = 0; c < labels.size(); ++c) {
    switch (state.label(static_cast<ClaimId>(c))) {
      case ClaimLabel::kNonCredible: labels[c] = 0; break;
      case ClaimLabel::kCredible: labels[c] = 1; break;
      case ClaimLabel::kUnlabeled: labels[c] = 2; break;
    }
  }
  w->VecU8(labels);
}

Status ReadBelief(BinaryReader* r, BeliefState* state) {
  std::vector<double> probs;
  std::vector<uint8_t> labels;
  VERITAS_RETURN_IF_ERROR(r->VecF64(&probs));
  VERITAS_RETURN_IF_ERROR(r->VecU8(&labels));
  if (probs.size() != labels.size()) {
    return Status::InvalidArgument("checkpoint: probs/labels size mismatch");
  }
  BeliefState out(probs.size());
  for (size_t c = 0; c < probs.size(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (labels[c] == 2) {
      out.set_prob(id, probs[c]);
    } else if (labels[c] <= 1) {
      out.SetLabel(id, labels[c] == 1);
    } else {
      return Status::InvalidArgument("checkpoint: bad label value");
    }
  }
  *state = std::move(out);
  return Status::OK();
}

Status SaveSessionCheckpoint(const Session& session,
                             const std::string& directory) {
  ScopedLatencyTimer timer(Metrics().save_seconds);
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("SaveSessionCheckpoint: cannot create " + directory);
  }

  BinaryWriter w;
  for (const uint8_t m : kMagic) w.U8(m);
  w.U32(kCheckpointVersion);
  BinaryOut out(&w);
  out.Value(session.spec_);

  if (session.spec_.mode == SessionMode::kBatch) {
    VERITAS_RETURN_IF_ERROR(SaveFactDatabase(*session.db_, directory + "/db"));
    out.Value(session.process_->ExportSessionState());
    out.Value(session.awaiting_answers_);
    out.Value(session.pending_plan_.candidates);
    out.Value(session.pending_plan_.batch);
  } else {
    VERITAS_RETURN_IF_ERROR(
        SaveFactDatabase(*session.source_corpus_, directory + "/db"));
    out.Value(session.next_arrival_);
    out.Value(session.stream_synced_);
    out.Value(session.checker_->ExportEmState());
    out.Value(session.checker_->state());
    out.Value(session.checker_->weights());
    out.Value(session.checker_->icrf()->rng_state());
  }

  // The simulated validator's stream, when it has one.
  Rng* user_rng =
      session.user_ != nullptr ? session.user_->mutable_rng() : nullptr;
  out.Value(user_rng != nullptr);
  out.Value(user_rng != nullptr ? user_rng->SaveState() : RngState());

  out.Value(session.steps_served_);
  const Status written = w.WriteFile(directory + "/session.bin");
  if (written.ok()) {
    Metrics().saves->Increment();
    Metrics().bytes->Record(static_cast<double>(CheckpointSizeBytes(directory)));
  }
  return written;
}

Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
    const std::string& directory) {
  ScopedLatencyTimer timer(Metrics().load_seconds);
  auto reader = BinaryReader::FromFile(directory + "/session.bin");
  if (!reader.ok()) return reader.status();
  BinaryReader r = std::move(reader).value();

  for (const uint8_t want : kMagic) {
    uint8_t got = 0;
    VERITAS_RETURN_IF_ERROR(r.U8(&got));
    if (got != want) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: not a checkpoint (bad magic)");
    }
  }
  uint32_t version = 0;
  VERITAS_RETURN_IF_ERROR(r.U32(&version));
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "LoadSessionCheckpoint: unsupported checkpoint version " +
        std::to_string(version));
  }
  BinaryIn in(&r);
  SessionSpec spec;
  VERITAS_RETURN_IF_ERROR(in.Value(&spec));

  auto db = LoadFactDatabase(directory + "/db");
  if (!db.ok()) return db.status();

  auto created = Session::Create(std::move(db).value(), spec);
  if (!created.ok()) return created.status();
  std::unique_ptr<Session> session = std::move(created).value();

  if (spec.mode == SessionMode::kBatch) {
    ValidationSessionState state;
    VERITAS_RETURN_IF_ERROR(in.Value(&state));
    VERITAS_RETURN_IF_ERROR(session->process_->RestoreSessionState(state));
    in.Value(&session->awaiting_answers_);
    in.Value(&session->pending_plan_.candidates);
    VERITAS_RETURN_IF_ERROR(in.Value(&session->pending_plan_.batch));
  } else {
    uint64_t next_arrival = 0;
    bool synced = false;
    VERITAS_RETURN_IF_ERROR(in.Value(&next_arrival));
    VERITAS_RETURN_IF_ERROR(in.Value(&synced));
    if (next_arrival > session->source_corpus_->num_claims()) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: arrival cursor past the corpus");
    }
    StreamingEmState em;
    BeliefState belief;
    std::vector<double> weights;
    RngState icrf_rng;
    in.Value(&em);
    in.Value(&belief);
    in.Value(&weights);
    VERITAS_RETURN_IF_ERROR(in.Value(&icrf_rng));
    if (belief.num_claims() != next_arrival) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: belief state does not match arrivals");
    }

    // Rebuild the arrived prefix of the corpus structurally, then inject
    // the numeric state. Re-feeding through OnClaimArrival would redo the
    // EM updates and diverge.
    const FactDatabase& corpus = *session->source_corpus_;
    FactDatabase arrived;
    for (size_t s = 0; s < corpus.num_sources(); ++s) {
      arrived.AddSource(corpus.source(static_cast<SourceId>(s)));
    }
    for (size_t d = 0; d < corpus.num_documents(); ++d) {
      arrived.AddDocument(corpus.document(static_cast<DocumentId>(d)));
    }
    for (size_t c = 0; c < next_arrival; ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      arrived.AddClaim(corpus.claim(id));
      if (corpus.has_ground_truth(id)) {
        arrived.SetGroundTruth(id, corpus.ground_truth(id));
      }
      for (const auto& [document, stance] : session->arrival_mentions_[c]) {
        VERITAS_RETURN_IF_ERROR(arrived.AddMention(document, id, stance));
      }
    }
    session->checker_->RestoreDatabase(std::move(arrived), std::move(belief));
    session->checker_->RestoreEmState(em);
    session->checker_->SetWeights(weights);
    session->checker_->icrf()->restore_rng_state(icrf_rng);
    session->next_arrival_ = static_cast<size_t>(next_arrival);
    session->stream_synced_ = synced;
    if (session->stream_synced_) {
      // Rebind the engine exactly as the pre-checkpoint Sync left it; no
      // inference runs, so the restored RNG stream stays aligned.
      VERITAS_RETURN_IF_ERROR(
          session->checker_->icrf()->RestoreEngine(session->checker_->state()));
    }
  }

  bool has_user_rng = false;
  RngState user_rng;
  in.Value(&has_user_rng);
  in.Value(&user_rng);
  VERITAS_RETURN_IF_ERROR(in.Value(&session->steps_served_));
  if (has_user_rng && session->user_ != nullptr) {
    if (Rng* rng = session->user_->mutable_rng()) rng->RestoreState(user_rng);
  }
  Metrics().loads->Increment();
  return session;
}

}  // namespace veritas
