/// \file
/// The three workloads and their closed-loop clients. Each client drives one
/// session at a time and sends the session's next request only after the
/// previous reply arrived, as a validator waiting on the service does. Every
/// session sets only its budget, its seed and an external validator
/// (UserSpec::Kind::kNone); the client answers each question with the
/// corpus ground truth.
///
///  guide  — 2 clients, one server; 25-question batch sessions on 204-claim
///           corpora, a Ground after every 5th question.
///  fleet  — 3 clients through a SessionRouter over two backends (default
///           per-step checkpoints); short sessions on 63-claim corpora:
///           create, 8 questions, one Ground, terminate. (With 4 clients
///           Grounds queued behind other sessions' steps on an unevenly
///           loaded backend, and their median swung with the share that did.)
///  stream — 4 clients, one server; streaming sessions over ~150 claims:
///           one arrival per Advance, a verdict every 4th arrival, a Ground
///           every 2nd, drained, then terminate.

#ifndef VBENCH_WORKLOADS_H_
#define VBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli.h"
#include "client.h"
#include "data/emulator.h"
#include "service/session.h"

namespace vbench {

/// A run measures in this many rounds, each on a freshly started stack: the
/// serving threads' placement and wake-up behaviour, which sets much of a
/// request's latency on a small host, is drawn anew per stack, and pooling
/// the rounds keeps one draw from deciding the run.
inline constexpr size_t kRounds = 5;

struct WorkloadSpec {
  Workload workload = Workload::kGuide;
  size_t clients = 1;
  bool fleet = false;
  veritas::SessionMode mode = veritas::SessionMode::kBatch;
  /// Batch: questions per session.
  size_t budget = 0;
  /// Batch: a Ground after every n-th question (0 = only the final one).
  /// Stream: a Ground after every n-th arrival.
  size_t ground_every = 0;
  /// Stream: a verdict on every n-th arrival.
  size_t verdict_every = 0;
  /// Sessions every client completes per round however short the window;
  /// the precision average is taken over exactly these, so it is a function
  /// of the seed alone.
  size_t min_sessions = 1;
  /// Question samples each round collects at least, so that the pooled
  /// 90th percentile has ten samples beyond it.
  size_t min_questions = 20;
  /// The corpora sessions draw from: one per counted session.
  std::vector<veritas::CorpusSpec> corpora;
};

WorkloadSpec SpecFor(Workload workload);

/// The corpora of a run, generated from its seed.
veritas::Result<std::vector<veritas::FactDatabase>> GenerateCorpora(
    const WorkloadSpec& spec, uint64_t seed);

/// One request of a session and what the wire returned, for the in-process
/// replay.
struct SessionOp {
  enum class Kind { kAdvance, kAnswer, kGround } kind = Kind::kAdvance;
  veritas::StepAnswers answers;  ///< kAnswer
  veritas::StepResult step;      ///< kAdvance / kAnswer
  double ground_precision = 0.0; ///< kGround
};

struct SessionLog {
  size_t corpus = 0;
  veritas::SessionSpec spec;
  std::vector<SessionOp> ops;
};

struct ClientResult {
  std::vector<double> question_ms;
  std::vector<double> open_ms;
  std::vector<double> ground_ms;
  size_t steps = 0;
  size_t sessions = 0;
  /// Why each session stopped ("budget-exhausted", "goal-reached",
  /// "stream-drained").
  std::map<std::string, size_t> stop_reasons;
  double active_s = 0.0;
  /// Final grounding precision of the first `min_sessions` sessions.
  std::vector<double> precisions;
  /// Entropy removed per answered question (batch).
  std::vector<double> entropy_drops;
  std::vector<SessionLog> logs;
  std::vector<CallRecord> calls;
  size_t failed = 0;
  std::vector<std::string> check_failures;
};

/// Runs one round of the workload's clients against `port` for `seconds`
/// (extended until every client has its minimum sessions and the round its
/// minimum question samples; a session once opened always runs to its end).
/// Round r starts each client at session r * min_sessions, so the counted
/// sessions of different rounds are distinct.
std::vector<ClientResult> RunClients(
    const WorkloadSpec& spec,
    const std::vector<veritas::FactDatabase>& corpora, uint16_t port,
    uint64_t seed, size_t round, double seconds, Tracer* tracer);

struct ReplayResult {
  /// One message per session whose replay diverged from the wire.
  std::vector<std::string> mismatches;
  /// Milliseconds per in-process call, by kind: "plan" and "complete"
  /// (batch Advance and Answer), "arrival" and "label" (stream Advance and
  /// Answer), "ground". Final Advances that only report `done` are left out.
  std::map<std::string, std::vector<double>> op_ms;
};

/// Replays every logged session through one in-process SessionManager, from
/// `threads` threads (the workload's client count, so the calls contend as
/// they did behind the server), comparing each reply with the wire's: the
/// question sequence, arrivals, IterationRecord entropy and precision, and
/// grounding precision must be identical.
ReplayResult ReplaySessions(const std::vector<ClientResult>& results,
                            const std::vector<veritas::FactDatabase>& corpora,
                            size_t threads);

}  // namespace vbench

#endif  // VBENCH_WORKLOADS_H_
