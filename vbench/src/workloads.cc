#include "workloads.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "service/session_manager.h"

namespace vbench {

using veritas::ApiRequest;
using veritas::CorpusSpec;
using veritas::FactDatabase;
using veritas::Result;
using veritas::SessionId;
using veritas::SessionMode;
using veritas::SessionSpec;
using veritas::StepAnswers;
using veritas::StepResult;

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t SessionSeed(uint64_t seed, size_t client, size_t index) {
  return Mix(Mix(seed) ^ Mix((static_cast<uint64_t>(client) << 32) + index));
}

template <typename Params>
ApiRequest Request(Params params) {
  ApiRequest request;
  request.params = std::move(params);
  return request;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One client's sessions over one connection.
class SessionRunner {
 public:
  SessionRunner(const WorkloadSpec& spec, BenchClient* client,
                ClientResult* out, std::atomic<size_t>* questions)
      : spec_(spec), client_(client), out_(out), questions_(questions) {}

  /// Runs one session to its end. False once a request failed or a check
  /// did not hold (recorded in out->check_failures).
  bool Run(const FactDatabase& db, size_t corpus, uint64_t seed,
           bool keep_precision) {
    SessionSpec spec;
    spec.mode = spec_.mode;
    spec.user.kind = veritas::UserSpec::Kind::kNone;
    spec.validation.budget = spec_.budget;
    spec.validation.seed = seed;
    spec.streaming.seed = seed;
    log_ = SessionLog{corpus, spec, {}};
    labels_.clear();

    auto created = client_->Call(Request(veritas::CreateSessionRequest{db, spec}));
    if (!created.ok()) return Fail("create", created.status());
    out_->open_ms.push_back(client_->calls().back().millis());
    session_ = std::get<veritas::CreateSessionResponse>(created.value().result)
                   .session;

    const bool ran = spec_.mode == SessionMode::kBatch ? RunBatch(db)
                                                        : RunStream(db);
    if (!ran) return false;

    // Final grounding: every label must ground to the verdict given.
    veritas::GroundingView view;
    if (!Ground(&view)) return false;
    for (const auto& [claim, verdict] : labels_) {
      if (claim >= view.grounding.size() || view.grounding[claim] != verdict) {
        return Check(false, "labelled claim " + std::to_string(claim) +
                                " does not ground to its verdict");
      }
    }
    auto terminated = client_->Call(Request(veritas::TerminateRequest{session_}));
    if (!terminated.ok()) return Fail("terminate", terminated.status());
    ++out_->sessions;
    if (keep_precision) out_->precisions.push_back(view.precision);
    out_->logs.push_back(std::move(log_));
    return true;
  }

 private:
  bool RunBatch(const FactDatabase& db) {
    StepResult step;
    if (!Advance(&step)) return false;
    size_t asked = 0;
    bool have_entropy = false;
    double last_entropy = 0.0;
    while (!step.done) {
      if (!step.awaiting_answers || step.candidates.empty()) {
        return Check(false, "batch step neither done nor asking");
      }
      ++asked;
      ++*questions_;
      if (spec_.ground_every > 0 && asked % spec_.ground_every == 0) {
        veritas::GroundingView view;
        if (!Ground(&view)) return false;
      }
      const veritas::ClaimId claim = step.candidates.front();
      const uint8_t verdict = db.ground_truth(claim) ? 1 : 0;
      StepAnswers answers;
      answers.claims = {claim};
      answers.answers = {verdict};

      const auto asked_at = std::chrono::steady_clock::now();
      StepResult answered;
      if (!Answer(answers, &answered)) return false;
      if (!answered.iteration_completed) {
        return Check(false, "answer did not complete an iteration");
      }
      labels_[claim] = verdict;
      if (have_entropy) {
        out_->entropy_drops.push_back(last_entropy - answered.record.entropy);
      }
      have_entropy = true;
      last_entropy = answered.record.entropy;
      if (!Advance(&step)) return false;
      if (!step.done) out_->question_ms.push_back(MillisSince(asked_at));
    }
    ++out_->stop_reasons[step.stop_reason];
    if (step.stop_reason == "budget-exhausted") {
      return Check(asked == spec_.budget,
                   "budget-exhausted after " + std::to_string(asked) +
                       " questions, budget " + std::to_string(spec_.budget));
    }
    return Check(step.stop_reason == "goal-reached",
                 "batch session stopped early: " + step.stop_reason);
  }

  bool RunStream(const FactDatabase& db) {
    size_t arrivals = 0;
    auto sent_at = std::chrono::steady_clock::now();
    StepResult step;
    if (!Advance(&step)) return false;
    while (!step.done) {
      if (!step.arrival_processed) return Check(false, "no arrival processed");
      out_->question_ms.push_back(MillisSince(sent_at));
      ++*questions_;
      const veritas::ClaimId claim = step.arrival.claim;
      if (claim != arrivals) return Check(false, "arrivals out of order");
      ++arrivals;
      if (spec_.ground_every > 0 && arrivals % spec_.ground_every == 0) {
        veritas::GroundingView view;
        if (!Ground(&view)) return false;
      }
      sent_at = std::chrono::steady_clock::now();
      if (spec_.verdict_every > 0 && arrivals % spec_.verdict_every == 0) {
        StepAnswers answers;
        answers.claims = {claim};
        answers.answers = {static_cast<uint8_t>(db.ground_truth(claim) ? 1 : 0)};
        StepResult labelled;
        if (!Answer(answers, &labelled)) return false;
        labels_[claim] = answers.answers.front();
      }
      if (!Advance(&step)) return false;
    }
    ++out_->stop_reasons[step.stop_reason];
    return Check(step.stop_reason == "stream-drained" &&
                     arrivals == db.num_claims(),
                 "stream ended after " + std::to_string(arrivals) + " of " +
                     std::to_string(db.num_claims()) + " arrivals: " +
                     step.stop_reason);
  }

  bool Advance(StepResult* step) {
    auto reply = client_->Call(Request(veritas::AdvanceRequest{session_}));
    if (!reply.ok()) return Fail("advance", reply.status());
    ++out_->steps;
    *step = std::get<veritas::StepResponse>(reply.value().result).step;
    Log(SessionOp::Kind::kAdvance, {}, *step, 0.0);
    return true;
  }

  bool Answer(const StepAnswers& answers, StepResult* step) {
    auto reply = client_->Call(Request(veritas::AnswerRequest{session_, answers}));
    if (!reply.ok()) return Fail("answer", reply.status());
    ++out_->steps;
    *step = std::get<veritas::StepResponse>(reply.value().result).step;
    Log(SessionOp::Kind::kAnswer, answers, *step, 0.0);
    return true;
  }

  bool Ground(veritas::GroundingView* view) {
    auto reply = client_->Call(Request(veritas::GroundRequest{session_}));
    if (!reply.ok()) return Fail("ground", reply.status());
    out_->ground_ms.push_back(client_->calls().back().millis());
    *view = std::get<veritas::GroundResponse>(reply.value().result).view;
    Log(SessionOp::Kind::kGround, {}, {}, view->precision);
    return true;
  }

  void Log(SessionOp::Kind kind, const StepAnswers& answers,
           const StepResult& step, double precision) {
    SessionOp op;
    op.kind = kind;
    op.answers = answers;
    op.step = step;
    op.ground_precision = precision;
    log_.ops.push_back(std::move(op));
  }

  bool Fail(const char* what, const veritas::Status& status) {
    out_->check_failures.push_back(std::string(what) +
                                   " failed: " + status.ToString());
    return false;
  }

  bool Check(bool ok, const std::string& message) {
    if (!ok) out_->check_failures.push_back(message);
    return ok;
  }

  const WorkloadSpec& spec_;
  BenchClient* client_;
  ClientResult* out_;
  std::atomic<size_t>* questions_;
  SessionId session_ = 0;
  SessionLog log_;
  std::map<veritas::ClaimId, uint8_t> labels_;
};

}  // namespace

WorkloadSpec SpecFor(Workload workload) {
  WorkloadSpec spec;
  spec.workload = workload;
  CorpusSpec a = veritas::WikipediaSpec();
  CorpusSpec b = veritas::SnopesSpec();
  switch (workload) {
    case Workload::kGuide:
      spec.clients = 2;
      spec.budget = 25;
      spec.ground_every = 5;
      spec.min_sessions = 2;
      a = veritas::Scaled(a, 1.3);   // 204 claims
      b = veritas::Scaled(b, 0.042);  // 204 claims
      break;
    case Workload::kFleet:
      spec.clients = 3;
      spec.fleet = true;
      spec.budget = 8;
      spec.min_sessions = 8;
      a = veritas::Scaled(a, 0.4);    // 63 claims
      b = veritas::Scaled(b, 0.013);  // 63 claims
      break;
    case Workload::kStream:
      spec.clients = 4;
      spec.mode = SessionMode::kStreaming;
      spec.ground_every = 2;
      spec.verdict_every = 4;
      spec.min_sessions = 2;
      a = veritas::Scaled(a, 1.0);   // 157 claims
      b = veritas::Scaled(b, 0.03);  // 146 claims
      break;
  }
  // One corpus per counted session of the run, alternating presets.
  for (size_t i = 0; i < spec.clients * spec.min_sessions * kRounds; ++i) {
    spec.corpora.push_back(i % 2 == 0 ? a : b);
  }
  return spec;
}

Result<std::vector<FactDatabase>> GenerateCorpora(const WorkloadSpec& spec,
                                                  uint64_t seed) {
  std::vector<FactDatabase> corpora;
  for (size_t i = 0; i < spec.corpora.size(); ++i) {
    veritas::Rng rng(Mix(seed ^ Mix(1000 + i)));
    auto corpus = veritas::GenerateCorpus(spec.corpora[i], &rng);
    if (!corpus.ok()) return corpus.status();
    corpora.push_back(std::move(corpus).value().db);
  }
  return corpora;
}

std::vector<ClientResult> RunClients(const WorkloadSpec& spec,
                                     const std::vector<FactDatabase>& corpora,
                                     uint16_t port, uint64_t seed,
                                     size_t round, double seconds,
                                     Tracer* tracer) {
  std::vector<ClientResult> results(spec.clients);
  std::atomic<size_t> questions{0};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      auto client = BenchClient::Connect(port, tracer, "c" + std::to_string(c));
      if (!client.ok()) {
        out.check_failures.push_back("connect failed: " +
                                     client.status().ToString());
        return;
      }
      SessionRunner runner(spec, client.value().get(), &out, &questions);
      const auto start = std::chrono::steady_clock::now();
      const size_t first = round * spec.min_sessions;
      for (size_t k = first;; ++k) {
        if (k >= first + spec.min_sessions &&
            std::chrono::steady_clock::now() >= deadline &&
            questions.load() >= spec.min_questions) {
          break;
        }
        const size_t corpus = (c + k * spec.clients) % corpora.size();
        if (!runner.Run(corpora[corpus], corpus, SessionSeed(seed, c, k),
                        k < first + spec.min_sessions)) {
          break;
        }
      }
      out.active_s = MillisSince(start) / 1e3;
      out.calls = client.value()->calls();
      out.failed = client.value()->failed();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

ReplayResult ReplaySessions(const std::vector<ClientResult>& results,
                            const std::vector<FactDatabase>& corpora,
                            size_t threads) {
  std::vector<const SessionLog*> logs;
  for (const ClientResult& result : results) {
    for (const SessionLog& log : result.logs) logs.push_back(&log);
  }
  std::mutex mu;  // guards `replayed`
  ReplayResult replayed;
  std::atomic<size_t> next{0};
  veritas::SessionManager manager;

  // Replays one session; returns its first divergence ("" when none).
  const auto replay = [&](const SessionLog& log,
                          std::map<std::string, std::vector<double>>* op_ms) {
    auto id = manager.Create(corpora[log.corpus], log.spec);
    if (!id.ok()) return "create: " + id.status().ToString();
    const bool batch = log.spec.mode == SessionMode::kBatch;
    std::string mismatch;
    for (size_t i = 0; i < log.ops.size() && mismatch.empty(); ++i) {
      const SessionOp& op = log.ops[i];
      const std::string at = "op " + std::to_string(i) + ": ";
      const auto start = std::chrono::steady_clock::now();
      if (op.kind == SessionOp::Kind::kGround) {
        auto view = manager.Ground(id.value());
        (*op_ms)["ground"].push_back(MillisSince(start));
        if (!view.ok()) {
          mismatch = at + view.status().ToString();
        } else if (view.value().precision != op.ground_precision) {
          mismatch = at + "ground precision differs";
        }
        continue;
      }
      const bool advance = op.kind == SessionOp::Kind::kAdvance;
      auto step = advance ? manager.Advance(id.value())
                          : manager.Answer(id.value(), op.answers);
      const StepResult& want = op.step;
      if (!want.done) {
        (*op_ms)[batch ? (advance ? "plan" : "complete")
                       : (advance ? "arrival" : "label")]
            .push_back(MillisSince(start));
      }
      if (!step.ok()) {
        mismatch = at + step.status().ToString();
        continue;
      }
      const StepResult& got = step.value();
      if (got.done != want.done || got.candidates != want.candidates ||
          got.arrival_processed != want.arrival_processed ||
          got.arrival.claim != want.arrival.claim ||
          got.arrival.initial_prob != want.arrival.initial_prob) {
        mismatch = at + "question sequence differs";
      } else if (got.iteration_completed != want.iteration_completed ||
                 got.record.claims != want.record.claims ||
                 got.record.entropy != want.record.entropy ||
                 got.record.precision != want.record.precision) {
        mismatch = at + "iteration record differs";
      }
    }
    manager.Terminate(id.value());
    return mismatch;
  };

  std::vector<std::thread> workers;
  for (size_t w = 0; w < std::min(threads, logs.size()); ++w) {
    workers.emplace_back([&] {
      std::map<std::string, std::vector<double>> op_ms;
      for (size_t i = next++; i < logs.size(); i = next++) {
        const std::string mismatch = replay(*logs[i], &op_ms);
        if (!mismatch.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          replayed.mismatches.push_back("session " + std::to_string(i) +
                                        " diverges from its replay at " +
                                        mismatch);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [kind, ms] : op_ms) {
        auto& all = replayed.op_ms[kind];
        all.insert(all.end(), ms.begin(), ms.end());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return replayed;
}

}  // namespace vbench
