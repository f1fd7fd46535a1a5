/// \file
/// The serving stack under test, in the benchmark's process, as a
/// deployment runs it: EventApiServer → GuidanceApi → RequestQueue →
/// SessionManager per backend, and for the fleet an EventApiServer over a
/// SessionRouter that forwards over loopback to two such backends. Every
/// component keeps its library defaults; the router only gets its backends
/// and a checkpoint directory.
///
/// A traced stack puts the benchmark's own FrameHandler between each server
/// and its handler. At a backend it runs the same decode → GuidanceApi::
/// Handle → encode path as GuidanceApi::HandleJson, with each stage in a
/// span; at the router it wraps SessionRouter::HandleFrame in one span.

#ifndef VBENCH_STACK_H_
#define VBENCH_STACK_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/event_server.h"
#include "api/service.h"
#include "fleet/router.h"
#include "service/request_queue.h"
#include "service/session_manager.h"
#include "trace.h"

namespace vbench {

/// What the traced run's client and wrappers share.
struct TraceContext {
  Tracer tracer;
  CheckpointAttribution attribution;
  std::atomic<size_t> checkpoint_frames{0};
  /// Checkpoint frames naming a backend session no traced frame named.
  std::atomic<size_t> unattributed_checkpoints{0};
};

class Stack {
 public:
  /// `checkpoint_dir` is used by the fleet only; `trace` may be null.
  static veritas::Result<std::unique_ptr<Stack>> Start(
      bool fleet, const std::string& checkpoint_dir, TraceContext* trace);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Where clients connect: the router's server or the single backend's.
  uint16_t port() const { return front_->port(); }
  /// A backend server, for the `metrics` call (the registry is
  /// process-wide, so one backend's snapshot covers the whole stack).
  uint16_t backend_port() const { return backends_.front()->server->port(); }
  /// Null unless fleet.
  const veritas::SessionRouter* router() const { return router_.get(); }

 private:
  struct Backend {
    std::unique_ptr<veritas::SessionManager> manager;
    std::unique_ptr<veritas::RequestQueue> queue;
    std::unique_ptr<veritas::GuidanceApi> api;
    std::unique_ptr<veritas::FrameHandler> traced;
    std::unique_ptr<veritas::EventApiServer> server;
  };

  Stack() = default;

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<veritas::SessionRouter> router_;
  std::unique_ptr<veritas::FrameHandler> traced_router_;
  std::unique_ptr<veritas::EventApiServer> router_server_;
  veritas::EventApiServer* front_ = nullptr;
};

}  // namespace vbench

#endif  // VBENCH_STACK_H_
