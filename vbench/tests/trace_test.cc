#include "trace.h"

#include <gtest/gtest.h>

#include <thread>

namespace vbench {
namespace {

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = "s" + std::to_string(id);
  span.trace_id = "t";
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(TraceTest, CoveredCountsOverlapsOnceAndClips) {
  EXPECT_EQ(CoveredNs({}, 0, 100), 0);
  EXPECT_EQ(CoveredNs({{10, 30}, {20, 40}}, 0, 100), 30);
  EXPECT_EQ(CoveredNs({{10, 30}, {15, 20}}, 0, 100), 20);  // nested
  EXPECT_EQ(CoveredNs({{10, 20}, {20, 30}}, 0, 100), 20);  // touching
  EXPECT_EQ(CoveredNs({{50, 60}, {10, 20}}, 0, 100), 20);  // unsorted
  EXPECT_EQ(CoveredNs({{-10, 10}, {90, 120}}, 0, 100), 20);  // clipped
  EXPECT_EQ(CoveredNs({{200, 300}}, 0, 100), 0);
}

TEST(TraceTest, SelfTimeIsSpanMinusUnionOfChildren) {
  // Parent [0, 100): children [10, 40) and [30, 60) overlap (union 50), a
  // grandchild [12, 20) belongs to the first child only.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 60),
      MakeSpan(4, 2, 12, 20)};
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 50);
  EXPECT_EQ(self.at(2), 22);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 8);
}

TEST(TraceTest, ChildOutsideItsParentIsClipped) {
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 100),
                                   MakeSpan(2, 1, 90, 130)};
  EXPECT_EQ(SelfTimesNs(spans).at(1), 90);
}

TEST(TraceTest, ParentIsInnermostOpenSpanOfTheSameTrace) {
  Tracer tracer;
  const uint64_t call = tracer.Begin("client.call", "a");
  const uint64_t other = tracer.Begin("client.call", "b");
  uint64_t server = 0;
  std::thread([&] { server = tracer.Begin("backend.frame", "a"); }).join();
  const uint64_t decode = tracer.Begin("api.server_decode", "a", 5);
  tracer.End(decode, 7);
  tracer.End(server);
  tracer.End(call);
  tracer.End(other);
  const uint64_t next = tracer.Begin("client.call", "a");
  tracer.End(next);

  std::map<uint64_t, Span> by_id;
  for (const Span& span : tracer.Finished()) by_id[span.id] = span;
  ASSERT_EQ(by_id.size(), 5u);
  EXPECT_EQ(by_id[call].parent, 0u);
  EXPECT_EQ(by_id[other].parent, 0u);
  EXPECT_EQ(by_id[server].parent, call);
  EXPECT_EQ(by_id[decode].parent, server);
  EXPECT_EQ(by_id[decode].start_ns, 5);
  EXPECT_EQ(by_id[decode].end_ns, 7);
  EXPECT_EQ(by_id[next].parent, 0u);
  EXPECT_LE(by_id[call].start_ns, by_id[call].end_ns);
}

TEST(TraceTest, RouterCheckpointIsChargedToTheRequestInFlight) {
  CheckpointAttribution attribution;
  // Router-initiated checkpoints name backend sessions, never traces.
  EXPECT_EQ(attribution.TraceOf(0, 7), "");
  // The traced create's reply placed backend session 7 on backend 0; the
  // create-time checkpoint belongs to the create.
  attribution.Observe(0, 7, "c0-1");
  EXPECT_EQ(attribution.TraceOf(0, 7), "c0-1");
  // Backend session ids are per backend: session 7 on backend 1 is another
  // client's session.
  attribution.Observe(1, 7, "c1-1");
  // A step forwarded to the session moves the charge to the step.
  attribution.Observe(0, 7, "c0-2");
  EXPECT_EQ(attribution.TraceOf(0, 7), "c0-2");
  EXPECT_EQ(attribution.TraceOf(1, 7), "c1-1");
  attribution.Forget(0, 7);
  EXPECT_EQ(attribution.TraceOf(0, 7), "");
  EXPECT_EQ(attribution.TraceOf(1, 7), "c1-1");
}

}  // namespace
}  // namespace vbench
