/// \file
/// Session checkpoint/restore (DESIGN.md §9): persists the FULL warm-start
/// state of a hosted session — fact database, log-linear weights, posterior
/// beliefs, labeled/confirmed sets, termination-monitor counters, RNG
/// streams (engine, strategy, simulated user) and, for streaming sessions,
/// the online-EM window — versioned and round-trip exact. The guarantee
/// the tests pin: restore-then-continue produces bit-for-bit the same
/// posterior as a never-checkpointed run. This is also the spill format of
/// the SessionManager's LRU eviction, which is what lets a bounded-memory
/// service host more sessions than fit in RAM.
///
/// On-disk layout of a checkpoint directory:
///   db/           the session's fact database (TSV, data/io.h; streaming
///                 sessions store the source corpus whose tail is still
///                 un-arrived)
///   session.bin   versioned binary record (BinaryWriter framing):
///                 magic "VCKP", format version, the SessionSpec, and the
///                 mode-specific numeric state.
///
/// The field layout of session.bin is the field lists of service/fields.h
/// walked by BinaryOut/BinaryIn below; only BeliefState and the session's
/// private bookkeeping are framed by hand.

#ifndef VERITAS_SERVICE_CHECKPOINT_H_
#define VERITAS_SERVICE_CHECKPOINT_H_

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "data/io.h"
#include "service/fields.h"
#include "service/session.h"

namespace veritas {

/// Current checkpoint format version. Bumped on any layout change; loaders
/// reject versions they do not understand instead of misreading them.
/// v2: GibbsOptions carries num_threads, ICrfOptions the two CRF backend
/// selectors, and GuidanceConfig the fan-out kernel + its schedule — all
/// previously dropped on save, so restores silently reverted them to
/// defaults.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Writes `session` to `directory` (created when missing, overwritten when
/// not). The caller must hold the session's lock (the SessionManager does).
Status SaveSessionCheckpoint(const Session& session,
                             const std::string& directory);

/// Reconstructs a session from a checkpoint directory. The returned session
/// continues exactly where the saved one stood: same posterior, same RNG
/// streams, same pending plan (when one was awaiting answers).
Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
    const std::string& directory);

/// Total on-disk bytes of a checkpoint directory (recursive). 0 when the
/// directory is missing or unreadable — sizing is diagnostic, never fatal.
/// Feeds the SessionManager's spill_bytes counter and the checkpoint-size
/// histogram (DESIGN.md §14).
size_t CheckpointSizeBytes(const std::string& directory);

/// BeliefState framing, the one visited type whose binary form is written
/// by hand: the probabilities, then one label byte per claim (0 = not
/// credible, 1 = credible, 2 = unlabeled).
void WriteBelief(BinaryWriter* w, const BeliefState& state);
Status ReadBelief(BinaryReader* r, BeliefState* state);

/// Checkpoint archive, writing side: each visited field in order — bools
/// and enums as one byte, uint32 as U32, other integers as U64, doubles as
/// F64, strings and scalar vectors length-prefixed, nested structs inline,
/// vectors of structs as a u64 count followed by the elements.
class BinaryOut {
 public:
  explicit BinaryOut(BinaryWriter* w) : w_(w) {}

  template <typename T>
  void Value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      w_->U8(value ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      w_->U8(static_cast<uint8_t>(value));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      w_->U32(value);
    } else if constexpr (std::is_integral_v<T>) {
      w_->U64(value);
    } else if constexpr (std::is_same_v<T, double>) {
      w_->F64(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_->Str(value);
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
      w_->VecU8(value);
    } else if constexpr (std::is_same_v<T, std::vector<uint32_t>>) {
      w_->VecU32(value);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      w_->VecF64(value);
    } else if constexpr (IsVector<T>::value) {
      w_->U64(value.size());
      for (const auto& item : value) Value(item);
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      WriteBelief(w_, value);
    } else {
      // Visitors take mutable references so one list serves both
      // directions; the writing side never mutates.
      VisitFields(*this, const_cast<T&>(value));
    }
  }

  template <typename T>
  void operator()(const char* /*key*/, const T& field) {
    Value(field);
  }

 private:
  BinaryWriter* w_;
};

/// Checkpoint archive, reading side: the exact inverse of BinaryOut. The
/// first error latches and skips every later field; enum bytes outside
/// the name table and corrupt element counts are rejected, never cast or
/// allocated.
class BinaryIn {
 public:
  explicit BinaryIn(BinaryReader* r) : r_(r) {}

  template <typename T>
  Status Value(T* out) {
    if (status_.ok()) status_ = Read("value", *out);
    return status_;
  }

  template <typename T>
  void operator()(const char* key, T& field) {
    if (status_.ok()) status_ = Read(key, field);
  }

 private:
  template <typename T>
  Status Read(const char* key, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      VERITAS_RETURN_IF_ERROR(r_->U8(&b));
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      uint8_t b = 0;
      VERITAS_RETURN_IF_ERROR(r_->U8(&b));
      if (b >= EnumCount<T>()) {
        return Status::InvalidArgument(std::string("checkpoint: bad ") + key +
                                       " value " + std::to_string(b));
      }
      v = static_cast<T>(b);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      return r_->U32(&v);
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t raw = 0;
      VERITAS_RETURN_IF_ERROR(r_->U64(&raw));
      v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, double>) {
      return r_->F64(&v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return r_->Str(&v);
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
      return r_->VecU8(&v);
    } else if constexpr (std::is_same_v<T, std::vector<uint32_t>>) {
      return r_->VecU32(&v);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      return r_->VecF64(&v);
    } else if constexpr (IsVector<T>::value) {
      uint64_t count = 0;
      VERITAS_RETURN_IF_ERROR(r_->U64(&count));
      // Every struct element carries at least one 8-byte field; this bound
      // rejects a corrupt count before the resize below can balloon.
      if (count > r_->remaining() / 8) {
        return Status::OutOfRange(std::string("checkpoint: truncated ") + key);
      }
      v.resize(static_cast<size_t>(count));
      for (auto& item : v) VERITAS_RETURN_IF_ERROR(Read(key, item));
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      return ReadBelief(r_, &v);
    } else {
      VisitFields(*this, v);
      return status_;
    }
    return Status::OK();
  }

  BinaryReader* r_;
  Status status_;
};

}  // namespace veritas

#endif  // VERITAS_SERVICE_CHECKPOINT_H_
