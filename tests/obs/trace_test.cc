// Request tracing end to end (DESIGN.md §14): a traced request carries its
// trace_id router -> backend -> queue -> step and back, and each stage
// records its span into veritas_trace_span_seconds{stage=...} — readable
// through the `metrics` wire method, which a router aggregates across its
// live backends exactly like `stats`. Untraced traffic must not emit
// trace spans and must echo no trace_id.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/codec.h"
#include "api/wire.h"
#include "fleet/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/corpus_fixtures.h"
#include "testing/fault_injection.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

using testing::AnswerFromTruth;
using testing::ExternalAnswerSpec;
using testing::WorkerFleet;
using testing::WorkerFleetOptions;

class TraceThroughRouterTest : public ::testing::Test {
 protected:
  void StartFleet(size_t workers) {
    WorkerFleetOptions fleet_options;
    fleet_options.workers = workers;
    fleet_ = std::make_unique<WorkerFleet>(fleet_options);
    SessionRouterOptions router_options;
    router_options.backends = fleet_->addresses();
    auto router = SessionRouter::Start(router_options);
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  /// One request through the router's frame path (the transport the wire
  /// servers would provide adds nothing trace-relevant).
  ApiResponse Call(ApiRequest request) {
    request.id = next_id_++;
    auto encoded = EncodeRequest(request);
    EXPECT_TRUE(encoded.ok()) << encoded.status();
    auto decoded = DecodeResponse(router_->HandleFrame(encoded.value()));
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    return decoded.ok() ? std::move(decoded).value() : ApiResponse{};
  }

  /// The fleet-aggregated metrics snapshot via the wire method.
  MetricsSnapshot FleetMetrics() {
    // Built in one expression: assigning MetricsRequest into a default
    // request trips gcc 12's -Wmaybe-uninitialized at -O2 (a false alarm
    // about the replaced alternative's strings).
    ApiResponse response = Call(
        ApiRequest{kApiVersion, /*id=*/0, /*trace_id=*/"", MetricsRequest{}});
    auto* metrics = std::get_if<MetricsResponse>(&response.result);
    EXPECT_NE(metrics, nullptr);
    return metrics == nullptr ? MetricsSnapshot{} : metrics->snapshot;
  }

  static uint64_t SpanCount(const MetricsSnapshot& snapshot,
                            const char* stage) {
    auto it = snapshot.histograms.find(TraceSpanMetricName(stage));
    return it == snapshot.histograms.end() ? 0 : it->second.count;
  }

  std::unique_ptr<WorkerFleet> fleet_;
  std::unique_ptr<SessionRouter> router_;
  uint64_t next_id_ = 1;
};

TEST_F(TraceThroughRouterTest, TracedStepRecordsRouterQueueAndStepSpans) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);

  const MetricsSnapshot before = FleetMetrics();

  ApiRequest create;
  create.trace_id = "trace-create";
  create.params = CreateSessionRequest{corpus.db, ExternalAnswerSpec(42, 4)};
  ApiResponse created = Call(std::move(create));
  EXPECT_EQ(created.trace_id, "trace-create");
  auto* session = std::get_if<CreateSessionResponse>(&created.result);
  ASSERT_NE(session, nullptr);

  ApiRequest advance;
  advance.trace_id = "trace-step-1";
  advance.params = AdvanceRequest{session->session};
  ApiResponse advanced = Call(std::move(advance));
  ASSERT_NE(std::get_if<StepResponse>(&advanced.result), nullptr);
  // The trace id rode router -> backend -> queue -> step and back out.
  EXPECT_EQ(advanced.trace_id, "trace-step-1");

  const MetricsSnapshot after = FleetMetrics();
  // Every stage recorded at least the advance's span. (The backends share
  // this process's registry, so counts are merged multiples — only growth
  // is asserted.)
  EXPECT_GT(SpanCount(after, "router"), SpanCount(before, "router"));
  EXPECT_GT(SpanCount(after, "queue"), SpanCount(before, "queue"));
  EXPECT_GT(SpanCount(after, "step"), SpanCount(before, "step"));
}

TEST_F(TraceThroughRouterTest, UntracedTrafficEchoesNoTraceId) {
  StartFleet(1);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(9, 16);

  ApiRequest create;
  create.params = CreateSessionRequest{corpus.db, ExternalAnswerSpec(11, 4)};
  ApiResponse created = Call(std::move(create));
  EXPECT_TRUE(created.trace_id.empty());
  auto* session = std::get_if<CreateSessionResponse>(&created.result);
  ASSERT_NE(session, nullptr);

  ApiRequest advance;
  advance.params = AdvanceRequest{session->session};
  ApiResponse advanced = Call(std::move(advance));
  EXPECT_TRUE(advanced.trace_id.empty());
  ASSERT_NE(std::get_if<StepResponse>(&advanced.result), nullptr);
}

TEST_F(TraceThroughRouterTest, MetricsMethodAggregatesBackendCounters) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(5, 16);

  ApiRequest create;
  create.params = CreateSessionRequest{corpus.db, ExternalAnswerSpec(3, 4)};
  ApiResponse created = Call(std::move(create));
  ASSERT_NE(std::get_if<CreateSessionResponse>(&created.result), nullptr);

  const MetricsSnapshot snapshot = FleetMetrics();
  // Session lifecycle counters flow from the backends' registries; router
  // counters from its own. Both must appear in one merged snapshot.
  auto created_total = snapshot.counters.find("veritas_sessions_created_total");
  ASSERT_NE(created_total, snapshot.counters.end());
  EXPECT_GE(created_total->second, 1u);
  EXPECT_NE(snapshot.counters.find("veritas_router_failovers_total"),
            snapshot.counters.end());
  // Forward round trips happened (create + metrics fan-outs).
  auto forward = snapshot.histograms.find("veritas_router_forward_seconds");
  ASSERT_NE(forward, snapshot.histograms.end());
  EXPECT_GE(forward->second.count, 1u);
}

TEST_F(TraceThroughRouterTest, SlowStepThresholdIsAdjustable) {
  const double original = SlowStepThresholdSeconds();
  SetSlowStepThresholdSeconds(0.5);
  EXPECT_DOUBLE_EQ(SlowStepThresholdSeconds(), 0.5);
  SetSlowStepThresholdSeconds(original);
}

}  // namespace
}  // namespace veritas
