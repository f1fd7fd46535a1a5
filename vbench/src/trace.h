/// \file
/// In-memory spans of the traced run. The benchmark opens a span around
/// each call it makes into a layer — the client's codec and round trip, the
/// router's frame handler, the backend's decode, dispatch and encode — and
/// writes them out when the run ends. A span records its name, start, end,
/// parent and the trace id of the client request it serves; spans of one
/// request share the trace id, and a span's parent is the innermost span of
/// the same trace open when it began (one request runs one call at a time,
/// so its spans nest).
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover (children may overlap each other).

#ifndef VBENCH_TRACE_H_
#define VBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span
  std::string name;
  std::string trace_id;
  int64_t start_ns = 0;  ///< steady clock
  int64_t end_ns = 0;
};

/// Thread-safe span recorder.
class Tracer {
 public:
  static int64_t NowNs();

  /// Opens a span of `trace_id` (now, unless a start is given); returns its
  /// id. A start in the past lets a caller open a span only once it has
  /// learnt the trace id, e.g. after decoding the frame that carries it.
  uint64_t Begin(std::string name, const std::string& trace_id,
                 int64_t start_ns = NowNs());
  /// Closes an open span (now, unless an end is given).
  void End(uint64_t id, int64_t end_ns = NowNs());
  /// Closed spans, in closing order.
  std::vector<Span> Finished() const;

  /// One JSON object per line: id, parent, name, trace_id, start_ns, end_ns.
  veritas::Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, Span> open_;
  /// Open span ids per trace, innermost last.
  std::unordered_map<std::string, std::vector<uint64_t>> stacks_;
  std::vector<Span> finished_;
};

/// Opens a span for the scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, const std::string& trace_id)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name), trace_id) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Length of the union of the [start, end) intervals, clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

/// Self time of every span: duration minus the union of its children.
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Router-initiated checkpoint frames carry no trace id: the router builds
/// them itself after a create or a step. They name the backend session they
/// save, so the benchmark remembers, per (backend, backend session), the
/// trace of the last traced frame that named it — the traced create's reply
/// first, then each step forwarded to it — and charges the checkpoint to
/// that trace, which is the client request still in flight.
class CheckpointAttribution {
 public:
  void Observe(size_t backend, uint64_t session, const std::string& trace_id);
  /// The trace to charge; empty when the session was never seen traced.
  std::string TraceOf(size_t backend, uint64_t session) const;
  void Forget(size_t backend, uint64_t session);

 private:
  mutable std::mutex mu_;
  std::map<std::pair<size_t, uint64_t>, std::string> traces_;
};

}  // namespace vbench

#endif  // VBENCH_TRACE_H_
