#include "client.h"

#include "api/codec.h"

namespace vbench {

using veritas::ApiRequest;
using veritas::ApiResponse;
using veritas::Result;
using veritas::Status;

Result<std::unique_ptr<BenchClient>> BenchClient::Connect(uint16_t port,
                                                          Tracer* tracer,
                                                          std::string name) {
  auto socket = veritas::Socket::ConnectTcp("127.0.0.1", port);
  if (!socket.ok()) return socket.status();
  return std::unique_ptr<BenchClient>(
      new BenchClient(std::move(socket).value(), tracer, std::move(name)));
}

Result<ApiResponse> BenchClient::Call(ApiRequest request) {
  request.id = next_id_++;
  if (tracer_ != nullptr) {
    request.trace_id = name_ + "-" + std::to_string(request.id);
  }
  CallRecord record;
  record.method = request.method();
  record.trace_id = request.trace_id;
  record.start_ns = Tracer::NowNs();
  ScopedSpan call(tracer_, "client.call", request.trace_id);

  Status status;
  ApiResponse response;
  auto encoded = veritas::EncodeRequest(request);
  record.encode_ns = Tracer::NowNs() - record.start_ns;
  if (tracer_ != nullptr) {
    tracer_->End(tracer_->Begin("api.client_encode", request.trace_id,
                                record.start_ns),
                 record.start_ns + record.encode_ns);
  }
  if (!encoded.ok()) {
    status = encoded.status();
  } else {
    record.request_bytes = encoded.value().size();
    status = veritas::WriteFrame(socket_, encoded.value());
  }
  if (status.ok()) {
    auto frame = veritas::ReadFrame(socket_);
    if (!frame.ok()) {
      status = frame.status();
    } else {
      record.response_bytes = frame.value().size();
      ScopedSpan decode(tracer_, "api.client_decode", request.trace_id);
      const int64_t decode_start = Tracer::NowNs();
      auto decoded = veritas::DecodeResponse(frame.value());
      record.decode_ns = Tracer::NowNs() - decode_start;
      if (!decoded.ok()) {
        status = decoded.status();
      } else {
        response = std::move(decoded).value();
        if (response.id != request.id) {
          status = Status::Internal("response id does not match request id");
        } else if (veritas::IsError(response)) {
          status = veritas::ToStatus(
              std::get<veritas::ErrorResponse>(response.result));
        }
      }
    }
  }
  record.end_ns = Tracer::NowNs();
  if (!status.ok()) ++failed_;
  calls_.push_back(std::move(record));
  if (!status.ok()) return status;
  return response;
}

}  // namespace vbench
