/// \file
/// Entry point of veritas-lint (DESIGN.md §15). Exit status: 0 when the
/// tree is clean, 1 on findings, 2 on usage/configuration errors.
///
///   veritas-lint --repo <root> [--compile-commands <json>]
///                [--check determinism|wire-compat]...
///                [--codec <cc>] [--checkpoint <cc>]
///                [--determinism-dir <dir>]... [--enum-dir <dir>]...
///
/// Relative paths are resolved against --repo. Fixture trees (tests/lint)
/// exercise the checks by overriding every path.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/json.h"
#include "lint.h"

namespace {

namespace fs = std::filesystem;

std::string Resolve(const std::string& repo, const std::string& path) {
  if (!path.empty() && path.front() == '/') return path;
  return (fs::path(repo) / path).string();
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --repo <root> [--compile-commands <json>] [--check <name>]\n"
               "  checks: determinism, wire-compat "
               "(default: all)\n";
  return 2;
}

/// Collects the "file" entries of compile_commands.json with the repo's
/// own JSON parser (the one the wire codec uses).
bool LoadCompileCommands(const std::string& path,
                         std::vector<std::string>* files) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "veritas-lint: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = veritas::ParseJson(buffer.str());
  if (!parsed.ok() || !parsed.value().is_array()) {
    std::cerr << "veritas-lint: " << path << " is not a JSON array\n";
    return false;
  }
  const fs::path base = fs::path(path).parent_path();
  for (const veritas::JsonValue& entry : parsed.value().items()) {
    const veritas::JsonValue* file = entry.Find("file");
    if (file == nullptr) continue;
    auto name = file->AsString();
    if (!name.ok()) continue;
    fs::path resolved(name.value());
    if (resolved.is_relative()) {
      const veritas::JsonValue* dir = entry.Find("directory");
      auto dir_name =
          dir == nullptr ? veritas::Result<std::string>(std::string())
                         : dir->AsString();
      resolved = (dir_name.ok() && !dir_name.value().empty()
                      ? fs::path(dir_name.value())
                      : base) /
                 resolved;
    }
    files->push_back(resolved.string());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  veritas::lint::Config config;
  std::string compile_commands;
  bool default_dirs = true;

  const auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--repo" && (value = next(i))) {
      config.repo = value;
    } else if (arg == "--compile-commands" && (value = next(i))) {
      compile_commands = value;
    } else if (arg == "--check" && (value = next(i))) {
      config.checks.insert(value);
    } else if (arg == "--codec" && (value = next(i))) {
      config.codec = value;
    } else if (arg == "--checkpoint" && (value = next(i))) {
      config.checkpoint = value;
    } else if (arg == "--determinism-dir" && (value = next(i))) {
      config.determinism_dirs.push_back(value);
      default_dirs = false;
    } else if (arg == "--enum-dir" && (value = next(i))) {
      config.enum_dirs.push_back(value);
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.repo.empty()) return Usage(argv[0]);
  std::error_code ec;
  config.repo = fs::weakly_canonical(config.repo, ec).string();

  if (config.codec.empty()) config.codec = "src/api/codec.cc";
  if (config.checkpoint.empty()) config.checkpoint = "src/service/checkpoint.cc";
  if (default_dirs) {
    config.determinism_dirs = {"src/crf", "src/core", "src/graph"};
  }
  if (config.enum_dirs.empty()) config.enum_dirs = {"src"};

  config.codec = Resolve(config.repo, config.codec);
  config.checkpoint = Resolve(config.repo, config.checkpoint);
  if (!compile_commands.empty() &&
      !LoadCompileCommands(Resolve(config.repo, compile_commands),
                           &config.compile_files)) {
    return 2;
  }

  const auto findings = veritas::lint::Run(config);
  for (const auto& finding : findings) {
    std::cout << finding.file << ":" << finding.line << ": [" << finding.check
              << "] " << finding.message << "\n";
  }
  if (findings.empty()) {
    std::cout << "veritas-lint: clean\n";
    return 0;
  }
  std::cout << "veritas-lint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << "\n";
  return 1;
}
