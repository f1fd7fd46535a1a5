#include "stack.h"

#include <type_traits>
#include <variant>

#include "api/codec.h"

namespace vbench {

using veritas::ApiMethod;
using veritas::ApiRequest;
using veritas::ApiResponse;
using veritas::Result;
using veritas::Status;

namespace {

template <typename T, typename = void>
struct NamesSession : std::false_type {};
template <typename T>
struct NamesSession<T, std::void_t<decltype(T::session)>> : std::true_type {};

/// The backend session a request names, 0 for none.
uint64_t SessionOf(const ApiRequest& request) {
  return std::visit(
      [](const auto& params) -> uint64_t {
        if constexpr (NamesSession<std::decay_t<decltype(params)>>::value) {
          return params.session;
        } else {
          return 0;
        }
      },
      request.params);
}

/// Backend boundary: GuidanceApi::HandleJson's decode → dispatch → encode,
/// each stage in a span of the request's trace. Checkpoint frames from the
/// router carry no trace id; they are charged to the client request in
/// flight on the session they name.
class TracedBackend : public veritas::FrameHandler {
 public:
  TracedBackend(veritas::GuidanceApi* api, size_t index, TraceContext* trace)
      : api_(api), index_(index), trace_(trace) {}

  std::string HandleFrame(const std::string& frame) override {
    const int64_t start = Tracer::NowNs();
    uint64_t id = 0;
    auto decoded = veritas::DecodeRequest(frame, &id);
    const int64_t decoded_at = Tracer::NowNs();
    if (!decoded.ok()) return Encode(veritas::MakeErrorResponse(id, decoded.status()));
    const ApiRequest& request = decoded.value();
    const uint64_t session = SessionOf(request);

    std::string trace_id = request.trace_id;
    if (request.method() == ApiMethod::kCheckpoint) {
      ++trace_->checkpoint_frames;
      trace_id = trace_->attribution.TraceOf(index_, session);
      if (trace_id.empty()) ++trace_->unattributed_checkpoints;
    }
    if (trace_id.empty()) return Encode(api_->Handle(request));

    Tracer& tracer = trace_->tracer;
    const uint64_t frame_span = tracer.Begin("backend.frame", trace_id, start);
    tracer.End(tracer.Begin("api.server_decode", trace_id, start), decoded_at);
    ApiResponse response;
    {
      ScopedSpan dispatch(&tracer,
                          std::string("service.") +
                              veritas::ApiMethodName(request.method()),
                          trace_id);
      response = api_->Handle(request);
    }
    if (request.method() == ApiMethod::kCreateSession) {
      if (auto* created =
              std::get_if<veritas::CreateSessionResponse>(&response.result)) {
        trace_->attribution.Observe(index_, created->session, trace_id);
      }
    } else if (request.method() == ApiMethod::kTerminate) {
      trace_->attribution.Forget(index_, session);
    } else if (session != 0 && !request.trace_id.empty()) {
      trace_->attribution.Observe(index_, session, trace_id);
    }
    std::string encoded;
    {
      ScopedSpan encode(&tracer, "api.server_encode", trace_id);
      encoded = Encode(response);
    }
    tracer.End(frame_span);
    return encoded;
  }

 private:
  /// GuidanceApi::HandleJson's encoding, including its error fallback.
  static std::string Encode(const ApiResponse& response) {
    auto encoded = veritas::EncodeResponse(response);
    if (!encoded.ok()) {
      encoded = veritas::EncodeResponse(
          veritas::MakeErrorResponse(response.id, encoded.status()));
    }
    return encoded.ok() ? std::move(encoded).value() : std::string("{}");
  }

  veritas::GuidanceApi* api_;
  size_t index_;
  TraceContext* trace_;
};

/// Router boundary: SessionRouter::HandleFrame in one span. The trace id is
/// read from the envelope's head, where the codec writes it right after the
/// id; a quote inside a JSON string is escaped, so the first unescaped
/// `"trace_id":"` is the envelope's own member.
class TracedRouter : public veritas::FrameHandler {
 public:
  TracedRouter(veritas::SessionRouter* router, Tracer* tracer)
      : router_(router), tracer_(tracer) {}

  std::string HandleFrame(const std::string& frame) override {
    static const std::string kKey = "\"trace_id\":\"";
    const size_t at = frame.find(kKey);
    if (at == std::string::npos || at > 64) return router_->HandleFrame(frame);
    const size_t begin = at + kKey.size();
    const size_t end = frame.find('"', begin);
    if (end == std::string::npos) return router_->HandleFrame(frame);
    ScopedSpan span(tracer_, "fleet.router", frame.substr(begin, end - begin));
    return router_->HandleFrame(frame);
  }

 private:
  veritas::SessionRouter* router_;
  Tracer* tracer_;
};

}  // namespace

Result<std::unique_ptr<Stack>> Stack::Start(bool fleet,
                                            const std::string& checkpoint_dir,
                                            TraceContext* trace) {
  std::unique_ptr<Stack> stack(new Stack());
  const size_t num_backends = fleet ? 2 : 1;
  for (size_t i = 0; i < num_backends; ++i) {
    auto backend = std::make_unique<Backend>();
    backend->manager = std::make_unique<veritas::SessionManager>();
    backend->queue = std::make_unique<veritas::RequestQueue>(
        backend->manager.get(), veritas::RequestQueueOptions{});
    backend->api = std::make_unique<veritas::GuidanceApi>(
        backend->manager.get(), backend->queue.get());
    veritas::FrameHandler* handler = backend->api.get();
    if (trace != nullptr) {
      backend->traced =
          std::make_unique<TracedBackend>(backend->api.get(), i, trace);
      handler = backend->traced.get();
    }
    auto server = veritas::EventApiServer::Start(handler);
    if (!server.ok()) return server.status();
    backend->server = std::move(server).value();
    stack->backends_.push_back(std::move(backend));
  }
  if (!fleet) {
    stack->front_ = stack->backends_.front()->server.get();
    return stack;
  }

  veritas::SessionRouterOptions options;
  for (const auto& backend : stack->backends_) {
    options.backends.push_back("127.0.0.1:" +
                               std::to_string(backend->server->port()));
  }
  options.checkpoint_dir = checkpoint_dir;
  auto router = veritas::SessionRouter::Start(options);
  if (!router.ok()) return router.status();
  stack->router_ = std::move(router).value();
  veritas::FrameHandler* handler = stack->router_.get();
  if (trace != nullptr) {
    stack->traced_router_ =
        std::make_unique<TracedRouter>(stack->router_.get(), &trace->tracer);
    handler = stack->traced_router_.get();
  }
  auto server = veritas::EventApiServer::Start(handler);
  if (!server.ok()) return server.status();
  stack->router_server_ = std::move(server).value();
  stack->front_ = stack->router_server_.get();
  return stack;
}

Stack::~Stack() {
  // Outside in: no server may call into a handler being destroyed.
  if (router_server_ != nullptr) router_server_->Stop();
  router_server_.reset();
  traced_router_.reset();
  router_.reset();
  for (auto& backend : backends_) {
    if (backend->server != nullptr) backend->server->Stop();
    backend->server.reset();
    backend->traced.reset();
    backend->api.reset();
    backend->queue.reset();
    backend->manager.reset();
  }
}

}  // namespace vbench
