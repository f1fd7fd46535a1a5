#include "api/client.h"

#include <utility>

#include "api/codec.h"

namespace veritas {

namespace {

/// Folds an error alternative back into its Status; otherwise extracts the
/// expected payload (a mismatched payload type is a protocol violation).
template <typename T>
Result<T> Expect(Result<ApiResponse> response) {
  if (!response.ok()) return response.status();
  ApiResponse& envelope = response.value();
  if (const ErrorResponse* error = std::get_if<ErrorResponse>(&envelope.result)) {
    return ToStatus(*error);
  }
  if (T* payload = std::get_if<T>(&envelope.result)) {
    return std::move(*payload);
  }
  return Status::Internal("ApiClient: unexpected response payload type");
}

/// Wraps one params alternative in a request envelope. The envelope is
/// built in place and handed to Call() as a prvalue, so the params variant
/// is never move-constructed (gcc 12 misreads that move as reading an
/// inactive alternative's string under -O2: -Wmaybe-uninitialized).
template <typename Params>
ApiRequest Envelope(Params params) {
  ApiRequest request;
  request.params = std::move(params);
  return request;
}

}  // namespace

Result<std::unique_ptr<ApiClient>> ApiClient::Connect(const std::string& host,
                                                      uint16_t port) {
  auto socket = Socket::ConnectTcp(host, port);
  if (!socket.ok()) return socket.status();
  return std::unique_ptr<ApiClient>(new ApiClient(std::move(socket).value()));
}

Result<ApiResponse> ApiClient::Call(ApiRequest request) {
  request.id = next_id_++;
  auto encoded = EncodeRequest(request);
  if (!encoded.ok()) return encoded.status();
  VERITAS_RETURN_IF_ERROR(WriteFrame(socket_, encoded.value()));
  auto frame = ReadFrame(socket_);
  if (!frame.ok()) return frame.status();
  auto response = DecodeResponse(frame.value());
  if (!response.ok()) return response.status();
  if (response.value().id != request.id) {
    return Status::Internal("ApiClient: response id " +
                            std::to_string(response.value().id) +
                            " does not match request id " +
                            std::to_string(request.id));
  }
  return response;
}

Result<SessionId> ApiClient::CreateSession(const FactDatabase& db,
                                           const SessionSpec& spec) {
  auto response = Expect<CreateSessionResponse>(
      Call(Envelope(CreateSessionRequest{db, spec})));
  if (!response.ok()) return response.status();
  return response.value().session;
}

Result<StepResult> ApiClient::Advance(SessionId session) {
  auto response = Expect<StepResponse>(Call(Envelope(AdvanceRequest{session})));
  if (!response.ok()) return response.status();
  return std::move(response).value().step;
}

Result<StepResult> ApiClient::Answer(SessionId session,
                                     const StepAnswers& answers) {
  auto response =
      Expect<StepResponse>(Call(Envelope(AnswerRequest{session, answers})));
  if (!response.ok()) return response.status();
  return std::move(response).value().step;
}

Result<GroundingView> ApiClient::Ground(SessionId session) {
  auto response =
      Expect<GroundResponse>(Call(Envelope(GroundRequest{session})));
  if (!response.ok()) return response.status();
  return std::move(response).value().view;
}

Status ApiClient::Checkpoint(SessionId session, const std::string& directory) {
  auto response = Expect<CheckpointResponse>(
      Call(Envelope(CheckpointRequest{session, directory})));
  return response.status();
}

Result<SessionId> ApiClient::Restore(const std::string& directory) {
  auto response =
      Expect<RestoreResponse>(Call(Envelope(RestoreRequest{directory})));
  if (!response.ok()) return response.status();
  return response.value().session;
}

Result<StatsResponse> ApiClient::Stats() {
  return Expect<StatsResponse>(Call(Envelope(StatsRequest{})));
}

Result<ValidationOutcome> ApiClient::Terminate(SessionId session) {
  auto response =
      Expect<TerminateResponse>(Call(Envelope(TerminateRequest{session})));
  if (!response.ok()) return response.status();
  return std::move(response).value().outcome;
}

}  // namespace veritas
