/// \file
/// The benchmark's wire client: one connection, one request in flight, the
/// same encode → write frame → read frame → decode path as
/// veritas::ApiClient::Call, with each stage timed so the traced run can
/// split a round trip into client codec and the rest. Every call is logged;
/// a transport failure or an ErrorResponse counts as a failed request.

#ifndef VBENCH_CLIENT_H_
#define VBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/wire.h"
#include "common/socket.h"
#include "trace.h"

namespace vbench {

struct CallRecord {
  veritas::ApiMethod method = veritas::ApiMethod::kAdvance;
  std::string trace_id;  ///< empty when untraced
  int64_t start_ns = 0;  ///< before encoding
  int64_t end_ns = 0;    ///< after decoding
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class BenchClient {
 public:
  /// `tracer` (optional) makes every call a traced request whose trace id
  /// is `name` + "-" + sequence number.
  static veritas::Result<std::unique_ptr<BenchClient>> Connect(
      uint16_t port, Tracer* tracer, std::string name);

  /// One round trip. Transport and decode failures, and ErrorResponses,
  /// come back as a non-OK Result and are counted as failed.
  veritas::Result<veritas::ApiResponse> Call(veritas::ApiRequest request);

  const std::vector<CallRecord>& calls() const { return calls_; }
  size_t failed() const { return failed_; }

 private:
  BenchClient(veritas::Socket socket, Tracer* tracer, std::string name)
      : socket_(std::move(socket)), tracer_(tracer), name_(std::move(name)) {}

  veritas::Socket socket_;
  Tracer* tracer_;
  std::string name_;
  uint64_t next_id_ = 1;
  size_t failed_ = 0;
  std::vector<CallRecord> calls_;
};

}  // namespace vbench

#endif  // VBENCH_CLIENT_H_
