/// Test-side visitors over the field lists of service/fields.h: a random
/// fill that gives every visited field a random value of its type, and a
/// field-wise equality that compares doubles by bit pattern (== would call
/// -0.0 and 0.0 equal, and the point is exactness) and names the first
/// differing key path.

#ifndef VERITAS_TESTS_TESTING_FIELD_VISITORS_H_
#define VERITAS_TESTS_TESTING_FIELD_VISITORS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "service/fields.h"

namespace veritas {
namespace testing {

/// Free text full of JSON and TSV metacharacters, control bytes and UTF-8.
inline std::string NastyText(Rng* rng) {
  static const char* kPieces[] = {
      "plain",  "tab\t",    "quote\"", "back\\slash", "new\nline",
      "ret\r",  "ctrl\x01", "{json}",  "[\"array\"]", "\xc3\xa9\xe2\x82\xac",
      "a:b,c.", "",
  };
  std::string text;
  const size_t pieces = rng->UniformInt(5);
  for (size_t i = 0; i < pieces; ++i) {
    text += kPieces[rng->UniformInt(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return text;
}

/// Finite doubles, edge cases included: signed zero, the smallest
/// denormal, the most negative finite value.
inline double AnyFinite(Rng* rng) {
  switch (rng->UniformInt(6)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 5e-324;
    case 3: return -1.7976931348623157e308;
    case 4: return rng->Normal(0.0, 1e9);
    default: return rng->Uniform(-1.0, 1.0);
  }
}

/// 64-bit counts, edge cases included: 0, SIZE_MAX, any 64-bit pattern.
inline uint64_t AnyCount(Rng* rng) {
  switch (rng->UniformInt(4)) {
    case 0: return 0;
    case 1: return UINT64_MAX;
    case 2: return rng->NextU64();
    default: return rng->UniformInt(1000);
  }
}

/// Gives every visited field a random value: `FillVisitor(&rng).Fill(&s)`.
class FillVisitor {
 public:
  explicit FillVisitor(Rng* rng) : rng_(rng) {}

  template <typename T>
  void Fill(T* value) {
    T& v = *value;
    if constexpr (std::is_same_v<T, bool>) {
      v = rng_->Bernoulli(0.5);
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(rng_->UniformInt(EnumCount<T>()));
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      v = static_cast<uint8_t>(rng_->UniformInt(256));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      v = static_cast<uint32_t>(rng_->NextU64());
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(AnyCount(rng_));
    } else if constexpr (std::is_same_v<T, double>) {
      v = AnyFinite(rng_);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = NastyText(rng_);
    } else if constexpr (IsVector<T>::value) {
      v.resize(rng_->UniformInt(std::is_class_v<typename T::value_type> ? 3 : 6));
      for (auto& item : v) Fill(&item);
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      BeliefState state(rng_->UniformInt(6));
      for (size_t c = 0; c < state.num_claims(); ++c) {
        const ClaimId id = static_cast<ClaimId>(c);
        if (rng_->Bernoulli(0.5)) {
          state.SetLabel(id, rng_->Bernoulli(0.5));
        } else {
          state.set_prob(id, rng_->Uniform());
        }
      }
      v = std::move(state);
    } else {
      VisitFields(*this, v);
    }
  }

  template <typename T>
  void operator()(const char* /*key*/, T& field) {
    Fill(&field);
  }

 private:
  Rng* rng_;
};

/// Flattens a visited value into (key path, exact bytes) leaves.
class FlattenVisitor {
 public:
  using Leaves = std::vector<std::pair<std::string, std::string>>;

  template <typename T>
  static Leaves Of(const T& value) {
    FlattenVisitor flatten;
    flatten.Add("", value);
    return std::move(flatten.leaves_);
  }

  template <typename T>
  void operator()(const char* key, T& field) {
    Add(prefix_ + "." + key, field);
  }

 private:
  template <typename T>
  void Add(const std::string& path, const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      std::string bytes(sizeof(T), '\0');
      std::memcpy(&bytes[0], &v, sizeof(T));
      leaves_.emplace_back(path, bytes);
    } else if constexpr (std::is_same_v<T, std::string>) {
      leaves_.emplace_back(path, v);
    } else if constexpr (IsVector<T>::value) {
      Add(path + ".size", static_cast<uint64_t>(v.size()));
      for (size_t i = 0; i < v.size(); ++i) {
        Add(path + "[" + std::to_string(i) + "]", v[i]);
      }
    } else if constexpr (std::is_same_v<T, BeliefState>) {
      Add(path + ".probs", v.probs());
      for (size_t c = 0; c < v.num_claims(); ++c) {
        Add(path + ".label[" + std::to_string(c) + "]",
            v.label(static_cast<ClaimId>(c)));
      }
    } else {
      const std::string saved = prefix_;
      prefix_ = path;
      VisitFields(*this, const_cast<T&>(v));
      prefix_ = saved;
    }
  }

  std::string prefix_;
  Leaves leaves_;
};

/// Field-wise, bit-exact equality of two visited values.
template <typename T>
void ExpectFieldsEqual(const T& expected, const T& actual) {
  const auto want = FlattenVisitor::Of(expected);
  const auto got = FlattenVisitor::Of(actual);
  ASSERT_EQ(want.size(), got.size()) << "different field shapes";
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].first, got[i].first);
    EXPECT_TRUE(want[i].second == got[i].second)
        << "field " << want[i].first << " differs";
  }
}

}  // namespace testing
}  // namespace veritas

#endif  // VERITAS_TESTS_TESTING_FIELD_VISITORS_H_
