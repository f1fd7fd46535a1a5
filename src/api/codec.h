/// \file
/// JSON codec of the wire protocol (DESIGN.md §10): encodes/decodes the
/// api/wire.h envelopes and every embedded message with lossless round
/// trips — 64-bit integers stay exact decimals, doubles are emitted at
/// max_digits10 and re-parsed bit-for-bit, free text goes through
/// api/json.h escaping (the JSON analogue of data/io's TSV escaping rules),
/// and non-finite doubles are rejected at encode time. Decoders ignore
/// unknown JSON members (forward compatibility) and surface malformed
/// input — truncated documents, type mismatches, unknown methods, version
/// mismatches — as Status errors, never undefined behavior.
///
/// Messages are not serialized by per-message functions: JsonOut and
/// JsonIn below are the JSON archives of the field lists in
/// service/fields.h. Production code uses only the four envelope
/// functions; the archives are public so tests can round-trip any visited
/// struct in isolation.

#ifndef VERITAS_API_CODEC_H_
#define VERITAS_API_CODEC_H_

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "api/json.h"
#include "api/wire.h"
#include "service/fields.h"

namespace veritas {

/// Renders a request envelope:
///   {"api_version":1,"id":7,"method":"advance","params":{...}}
Result<std::string> EncodeRequest(const ApiRequest& request);

/// Parses a request envelope. `id_out` (optional) receives the correlation
/// id as soon as the envelope yields one — even when decoding then fails —
/// so servers can address their ErrorResponse. Rejects a missing or
/// mismatched api_version (kFailedPrecondition) and unknown methods
/// (kUnimplemented).
Result<ApiRequest> DecodeRequest(const std::string& json,
                                 uint64_t* id_out = nullptr);

/// Renders a response envelope:
///   {"api_version":1,"id":7,"ok":true,"result_type":"step","result":{...}}
///   {"api_version":1,"id":7,"ok":false,"error":{"code":2,
///    "status":"NotFound","message":"..."}}
Result<std::string> EncodeResponse(const ApiResponse& response);

/// Parses a response envelope (the client half).
Result<ApiResponse> DecodeResponse(const std::string& json);

/// BeliefState on the wire, the one visited type whose JSON form is written
/// by hand: {"probs":[...],"labels":[...]} with labels -1 (unlabeled),
/// 0 (not credible) or 1 (credible).
void EncodeBelief(const BeliefState& state, JsonWriter* writer);
Status DecodeBelief(const JsonValue& value, BeliefState* state);

/// Prefixes a decode error with the key it occurred under, so nested
/// failures read as a key path.
inline Status Contextualize(const Status& status, const std::string& key) {
  if (status.ok()) return status;
  return Status(status.code(), key + ": " + status.message());
}

/// JSON archive, writing side: a visited struct becomes an object with one
/// member per field in visit order; enums are written by name, vectors as
/// arrays. Non-finite doubles latch an error in the JsonWriter.
class JsonOut {
 public:
  explicit JsonOut(JsonWriter* w) : w_(w) {}

  template <typename T>
  void Value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      w_->Bool(value);
    } else if constexpr (std::is_enum_v<T>) {
      w_->String(EnumName(value));
    } else if constexpr (std::is_integral_v<T>) {
      w_->UInt(value);
    } else if constexpr (std::is_same_v<T, double>) {
      w_->Double(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_->String(value);
    } else if constexpr (IsVector<T>::value) {
      w_->BeginArray();
      for (const auto& item : value) Value(item);
      w_->EndArray();
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      EncodeBelief(value, w_);
    } else {
      w_->BeginObject();
      // Visitors take mutable references so one list serves both
      // directions; the writing side never mutates.
      VisitFields(*this, const_cast<T&>(value));
      w_->EndObject();
    }
  }

  template <typename T>
  void operator()(const char* key, const T& field) {
    w_->Key(key);
    Value(field);
  }

 private:
  JsonWriter* w_;
};

/// JSON archive, reading side. The contract every field shares: a missing
/// member keeps the caller's default (compatibility within one
/// api_version), a present member of the wrong type is an error, enum names
/// outside the name table are rejected, never coerced, and integers are
/// range-checked against the field's width. Errors carry the key path
/// ("validation: icrf: backend: ..."). The first error latches and skips
/// every later field.
class JsonIn {
 public:
  explicit JsonIn(const JsonValue& object) : object_(&object) {}

  /// Decodes one value (a visited struct must be a JSON object).
  template <typename T>
  static Status Value(const JsonValue& json, T* out) {
    if constexpr (std::is_same_v<T, bool>) {
      auto parsed = json.AsBool();
      if (!parsed.ok()) return parsed.status();
      *out = parsed.value();
    } else if constexpr (std::is_enum_v<T>) {
      auto name = json.AsString();
      if (!name.ok()) return name.status();
      if (!EnumFromName(name.value().c_str(), out)) {
        return Status::InvalidArgument("unknown name \"" + name.value() + "\"");
      }
    } else if constexpr (std::is_integral_v<T>) {
      auto parsed = json.AsU64();
      if (!parsed.ok()) return parsed.status();
      if constexpr (sizeof(T) < sizeof(uint64_t)) {
        if (parsed.value() > std::numeric_limits<T>::max()) {
          return Status::OutOfRange("exceeds uint" +
                                    std::to_string(8 * sizeof(T)));
        }
      }
      *out = static_cast<T>(parsed.value());
    } else if constexpr (std::is_same_v<T, double>) {
      auto parsed = json.AsDouble();
      if (!parsed.ok()) return parsed.status();
      *out = parsed.value();
    } else if constexpr (std::is_same_v<T, std::string>) {
      auto parsed = json.AsString();
      if (!parsed.ok()) return parsed.status();
      *out = std::move(parsed).value();
    } else if constexpr (IsVector<T>::value) {
      if (!json.is_array()) return Status::InvalidArgument("expected an array");
      out->clear();
      out->reserve(json.items().size());
      for (const JsonValue& item : json.items()) {
        typename T::value_type element{};
        VERITAS_RETURN_IF_ERROR(Value(item, &element));
        out->push_back(std::move(element));
      }
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      return DecodeBelief(json, out);
    } else {
      if (!json.is_object()) {
        return Status::InvalidArgument("expected an object");
      }
      JsonIn in(json);
      VisitFields(in, *out);
      return in.status();
    }
    return Status::OK();
  }

  template <typename T>
  void operator()(const char* key, T& field) {
    if (!status_.ok()) return;
    const JsonValue* member = object_->Find(key);
    if (member == nullptr) return;  // missing key keeps the default
    Status decoded = Value(*member, &field);
    if (!decoded.ok()) status_ = Contextualize(decoded, key);
  }

  const Status& status() const { return status_; }

 private:
  const JsonValue* object_;
  Status status_;
};

}  // namespace veritas

#endif  // VERITAS_API_CODEC_H_
