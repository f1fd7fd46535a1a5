// The generated coverage test of the serialized field lists
// (service/fields.h, DESIGN.md §10): for every visited struct it
//   - checks that the struct's member count equals its visited-field
//     count, so a member added but not visited fails here;
//   - fills every field with random values and round-trips them through
//     the JSON archives and the checkpoint archives, bit for bit;
//   - rejects an unknown JSON name and an out-of-range binary byte for
//     every enum field;
//   - keeps the caller's values for keys missing from a JSON object.
// It also cuts binary encodings at every byte offset, and pins the exact
// bytes of both formats against golden files written by the hand-written
// serializers this code replaced (tests/data/golden).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "service/checkpoint.h"
#include "testing/field_visitors.h"

namespace veritas {
namespace {

using testing::ExpectFieldsEqual;
using testing::FillVisitor;

// ---- member counting -------------------------------------------------------
// A C++17 aggregate with N members is brace-initializable from N values of
// a type convertible to anything, and not from N + 1.

struct AnyField {
  template <typename T>
  operator T() const;  // unevaluated contexts only
};

template <size_t>
using AnyFieldAt = AnyField;

template <typename T, typename Indices, typename = void>
struct BraceInitializable : std::false_type {};

template <typename T, size_t... I>
struct BraceInitializable<T, std::index_sequence<I...>,
                          std::void_t<decltype(T{AnyFieldAt<I>{}...})>>
    : std::true_type {};

template <typename T, size_t N = 0>
constexpr size_t MemberCount() {
  if constexpr (BraceInitializable<T, std::make_index_sequence<N + 1>>::value) {
    return MemberCount<T, N + 1>();
  } else {
    return N;
  }
}

struct CountVisitor {
  size_t count = 0;
  template <typename T>
  void operator()(const char* /*key*/, T& /*field*/) {
    ++count;
  }
};

/// Every enum field reachable without crossing a vector (enums inside
/// vector elements are covered by the element type's own test), with its
/// key path and a setter that pushes it one past its name table.
class EnumSiteVisitor {
 public:
  struct Site {
    std::vector<std::string> path;
    std::function<void()> poison;
  };

  template <typename T>
  void operator()(const char* key, T& field) {
    path_.push_back(key);
    if constexpr (std::is_enum_v<T>) {
      sites.push_back({path_, [&field] {
                         field = static_cast<T>(EnumCount<T>());
                       }});
    } else if constexpr (std::is_class_v<T> && !IsVector<T>::value &&
                         !std::is_same_v<T, std::string> &&
                         !std::is_same_v<T, BeliefState>) {
      VisitFields(*this, field);
    }
    path_.pop_back();
  }

  std::vector<Site> sites;

 private:
  std::vector<std::string> path_;
};

template <typename T>
Status FromJson(const std::string& json, T* out) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return JsonIn::Value(parsed.value(), out);
}

template <typename T>
std::string ToBinary(const T& value) {
  BinaryWriter w;
  BinaryOut(&w).Value(value);
  return w.buffer();
}

template <typename T>
Status FromBinary(const std::string& bytes, T* out) {
  BinaryReader r(bytes);
  VERITAS_RETURN_IF_ERROR(BinaryIn(&r).Value(out));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes");
  return Status::OK();
}

// ---- the per-struct properties ---------------------------------------------

template <typename T>
class FieldListTest : public ::testing::Test {};

using VisitedStructs = ::testing::Types<
    GibbsOptions, CrfConfig, TronOptions, ICrfOptions, GuidanceConfig,
    TerminationOptions, ValidationOptions, StreamingOptions, UserSpec,
    SessionSpec, IterationRecord, ValidationOutcome, StepResult,
    GroundingView, ServiceStats, SessionInfo, StepAnswers, ArrivalStats,
    ValidationSessionState, TerminationMonitorState, StreamingEmState,
    StreamingWindowExample, RngState>;
TYPED_TEST_SUITE(FieldListTest, VisitedStructs);

TYPED_TEST(FieldListTest, EveryMemberIsVisited) {
  TypeParam probe{};
  CountVisitor visited;
  VisitFields(visited, probe);
  EXPECT_EQ(MemberCount<TypeParam>(), visited.count)
      << "a member was added to the struct but not to its VisitFields list "
         "in service/fields.h";
}

TYPED_TEST(FieldListTest, RandomFillRoundTripsThroughJsonAndBinary) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    TypeParam original{};
    FillVisitor(&rng).Fill(&original);

    JsonWriter w;
    JsonOut(&w).Value(original);
    auto text = w.Take();
    ASSERT_TRUE(text.ok()) << text.status();
    TypeParam from_json{};
    ASSERT_TRUE(FromJson(text.value(), &from_json).ok());
    ExpectFieldsEqual(original, from_json);

    TypeParam from_binary{};
    const Status status = FromBinary(ToBinary(original), &from_binary);
    ASSERT_TRUE(status.ok()) << status;
    ExpectFieldsEqual(original, from_binary);
  }
}

TYPED_TEST(FieldListTest, MissingKeysKeepTheCallersValues) {
  Rng rng(0xdefa);
  TypeParam filled{};
  FillVisitor(&rng).Fill(&filled);
  TypeParam decoded = filled;
  ASSERT_TRUE(FromJson("{\"unknown_member\":[1]}", &decoded).ok());
  ExpectFieldsEqual(filled, decoded);
}

TYPED_TEST(FieldListTest, UnknownEnumNamesAndBytesAreRejected) {
  TypeParam probe{};
  EnumSiteVisitor enums;
  VisitFields(enums, probe);
  for (const auto& site : enums.sites) {
    // JSON: a document that sets only this field.
    for (const std::string bad : {"\"no_such_name\"", "1", "null"}) {
      std::string json = bad;
      for (auto key = site.path.rbegin(); key != site.path.rend(); ++key) {
        json = "{\"" + *key + "\":" + json + "}";
      }
      TypeParam decoded{};
      const Status status = FromJson(json, &decoded);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << json;
    }
    // Binary: the byte one past the name table.
    probe = TypeParam{};
    site.poison();
    TypeParam decoded{};
    const Status status = FromBinary(ToBinary(probe), &decoded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << site.path.back();
  }
}

// ---- truncation --------------------------------------------------------------

template <typename T>
void ExpectEveryCutRejected(Rng* rng) {
  T value{};
  FillVisitor(rng).Fill(&value);
  const std::string bytes = ToBinary(value);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader reader(bytes.substr(0, cut));
    T decoded{};
    EXPECT_FALSE(BinaryIn(&reader).Value(&decoded).ok())
        << "accepted a cut at byte " << cut << " of " << bytes.size();
  }
}

TEST(BinaryTruncationTest, EveryCutOfSpecAndSessionStateIsRejected) {
  Rng rng(0xc07);
  for (int trial = 0; trial < 3; ++trial) {
    ExpectEveryCutRejected<SessionSpec>(&rng);
    ExpectEveryCutRejected<ValidationSessionState>(&rng);
  }
}

// ---- golden files ----------------------------------------------------------

std::string Golden(const std::string& name) {
  return std::string(VERITAS_TEST_DATA) + "/golden/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(GoldenCheckpointTest, FormatVersionIsStillTwo) {
  // The golden checkpoints below are v2 files.
  EXPECT_EQ(kCheckpointVersion, 2u);
}

class GoldenCheckpointResaveTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCheckpointResaveTest, ResaveIsByteIdenticalAndSessionSteps) {
  const std::string source = Golden(GetParam());
  auto restored = LoadSessionCheckpoint(source);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const std::string copy = ::testing::TempDir() + "/veritas_golden_" +
                           std::to_string(getpid()) + "_" + GetParam();
  ASSERT_TRUE(SaveSessionCheckpoint(*restored.value(), copy).ok());
  EXPECT_TRUE(ReadFile(copy + "/session.bin") ==
              ReadFile(source + "/session.bin"))
      << "re-saved session.bin differs from " << source;
  std::error_code ec;
  std::filesystem::remove_all(copy, ec);

  for (int i = 0; i < 2; ++i) {
    auto step = restored.value()->Advance();
    ASSERT_TRUE(step.ok()) << step.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Golden, GoldenCheckpointResaveTest,
                         ::testing::Values("checkpoint_batch",
                                           "checkpoint_streaming"));

TEST(GoldenEnvelopeTest, RequestReEncodesByteIdentical) {
  const std::string text = ReadFile(Golden("json/create_session_request.json"));
  auto decoded = DecodeRequest(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto encoded = EncodeRequest(decoded.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(encoded.value(), text);
}

TEST(GoldenEnvelopeTest, ResponsesReEncodeByteIdentical) {
  for (const char* name :
       {"step_response.json", "ground_response.json", "stats_response.json",
        "terminate_response.json", "error_response.json"}) {
    const std::string text = ReadFile(Golden(std::string("json/") + name));
    auto decoded = DecodeResponse(text);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status();
    auto encoded = EncodeResponse(decoded.value());
    ASSERT_TRUE(encoded.ok()) << name << ": " << encoded.status();
    EXPECT_EQ(encoded.value(), text) << name;
  }
}

}  // namespace
}  // namespace veritas
