// End-to-end tests for the veritas-lint binary: the real tree must be
// clean, the bad fixtures must trip the determinism check, and the clean
// fixture must pass it.
//
// The test shells out to the binary (paths injected by CMake as
// VERITAS_LINT_BINARY / VERITAS_LINT_FIXTURES / VERITAS_LINT_REPO) and
// asserts on exit status plus stdout substrings, so it exercises the CLI
// exactly the way scripts/lint.sh and CI do.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunLint(const std::string& args) {
  const std::string command =
      std::string(VERITAS_LINT_BINARY) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string Fixture(const std::string& name) {
  return std::string(VERITAS_LINT_FIXTURES) + "/" + name;
}

TEST(LintTest, RealTreeIsClean) {
  const RunResult r = RunLint("--repo " + std::string(VERITAS_LINT_REPO));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsUnannotatedRandomDevice) {
  const RunResult r = RunLint("--repo " + Fixture("unannotated_random") +
                              " --determinism-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("random_device"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsHashOrderEmissionAndBareClock) {
  const RunResult r = RunLint("--repo " + Fixture("unannotated_random") +
                              " --determinism-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("hash_emit.cc"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unordered"), std::string::npos) << r.output;
  // timed.cc: the un-annotated clock in Bad() fires; the annotated one in
  // Good() must not.
  EXPECT_NE(r.output.find("timed.cc:7"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("timed.cc:12"), std::string::npos) << r.output;
}

TEST(LintTest, CleanFixturePasses) {
  const RunResult r =
      RunLint("--repo " + Fixture("clean") + " --determinism-dir det");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
