/// \file
/// veritas-lint: a repo-invariant static checker (DESIGN.md §15). Two
/// lexical/structural passes over the tree, no compiler front end:
///
///   determinism — inference code (src/crf, src/core, src/graph) must not
///     read ambient entropy or wall clocks, and must not range-for over
///     unordered containers (hash order leaks into FP summation order and
///     emitted sequences).
///   wire-compat — every enum the hand-written codec and checkpoint code
///     speaks must reject unknown values and default on missing keys (the
///     checkpoint-v2 postmortem rule), verified by pattern. Fields that go
///     through the visitor archives (service/fields.h) get these contracts
///     by construction, and tests/api/serialization_test.cc checks them.
///
/// Field coverage — every serialized member reaching every format — is not
/// a lint rule: each struct lists its fields once, in service/fields.h, and
/// the serialization test fails when a member is missing from that list.
///
/// Annotation grammar (a `// lint: <tag>` comment on the construct's line
/// or the line above):
///   timing          clock read measures latency only, never steers data
///   unordered-ok    iteration order provably cannot escape the scope
///   enum-checked    enum codec site validated by hand (dispatch keys)

#ifndef VERITAS_TOOLS_LINT_LINT_H_
#define VERITAS_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace veritas {
namespace lint {

struct Finding {
  std::string file;
  size_t line = 0;
  std::string check;  ///< "determinism" | "wire-compat"
  std::string message;
};

/// A source file prepared for lexical analysis: the raw lines, the
/// comment-stripped code (strings preserved, comments blanked so columns
/// and line numbers survive), and the per-line `// lint:` annotation tags.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;              ///< raw[i] is line i+1
  std::vector<std::string> code;             ///< parallel, comments blanked
  std::vector<std::set<std::string>> tags;   ///< parallel, lint annotations

  /// True when `line` (1-based) or the line above carries `tag`.
  bool Tagged(size_t line, const std::string& tag) const;
};

/// Reads and prepares a file; false (with *error set) when unreadable.
bool LoadSource(const std::string& path, SourceFile* out, std::string* error);

/// The comment-stripped text flattened to one string with a per-character
/// map back to 1-based line numbers — the substrate of the scanners.
struct FlatText {
  std::string text;
  std::vector<size_t> line;  ///< line[i] is the line of text[i]

  size_t LineAt(size_t pos) const {
    return pos < line.size() ? line[pos] : (line.empty() ? 1 : line.back());
  }
};
FlatText Flatten(const SourceFile& file);

struct FunctionDef {
  std::string name;
  size_t line = 0;
  size_t body_begin = 0;  ///< offset into FlatText.text, past the '{'
  size_t body_end = 0;    ///< offset of the matching '}'
};

/// Extracts free-function definitions (name + brace-matched body span) by
/// the `ident (args) {` pattern; control-flow keywords are excluded.
std::vector<FunctionDef> ParseFunctions(const FlatText& flat);

struct Config {
  std::string repo;        ///< absolute repo root
  std::string codec;       ///< default src/api/codec.cc
  std::string checkpoint;  ///< default src/service/checkpoint.cc
  std::vector<std::string> determinism_dirs;  ///< default crf/core/graph
  std::vector<std::string> enum_dirs;         ///< enum inventory, default src
  /// Translation units from compile_commands.json; empty = directory walk.
  std::vector<std::string> compile_files;
  std::set<std::string> checks;  ///< empty = both
  bool verbose = false;
};

std::vector<Finding> CheckDeterminism(const Config& config);
std::vector<Finding> CheckWireCompat(const Config& config);

/// Runs the selected checks and returns the findings sorted by location.
std::vector<Finding> Run(const Config& config);

}  // namespace lint
}  // namespace veritas

#endif  // VERITAS_TOOLS_LINT_LINT_H_
