#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace veritas {
namespace lint {

namespace fs = std::filesystem;

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Collects `lint: tag1 tag2` tags out of one comment's text.
void HarvestTags(const std::string& comment, std::set<std::string>* tags) {
  size_t pos = 0;
  while ((pos = comment.find("lint:", pos)) != std::string::npos) {
    size_t i = pos + 5;
    for (;;) {
      while (i < comment.size() &&
             (comment[i] == ' ' || comment[i] == ',' || comment[i] == '\t')) {
        ++i;
      }
      size_t start = i;
      while (i < comment.size() &&
             (std::islower(static_cast<unsigned char>(comment[i])) ||
              std::isdigit(static_cast<unsigned char>(comment[i])) ||
              comment[i] == '-')) {
        ++i;
      }
      if (i == start) break;
      tags->insert(comment.substr(start, i - start));
      // One tag per `lint:` marker keeps prose after the tag from being
      // swallowed; multiple tags need multiple markers.
      break;
    }
    pos = i;
  }
}

/// Advances past a string or character literal starting at text[i] (which
/// is the opening quote); returns the index one past the closing quote.
size_t SkipLiteral(const std::string& text, size_t i) {
  const char quote = text[i];
  ++i;
  while (i < text.size()) {
    if (text[i] == '\\') {
      i += 2;
      continue;
    }
    if (text[i] == quote) return i + 1;
    ++i;
  }
  return i;
}

/// Index one past the bracket that closes the one at text[open]; quote- and
/// nesting-aware. Returns text.size() when unbalanced.
size_t MatchBracket(const std::string& text, size_t open, char lhs, char rhs) {
  size_t depth = 0;
  for (size_t i = open; i < text.size();) {
    const char c = text[i];
    if (c == '"' || c == '\'') {
      i = SkipLiteral(text, i);
      continue;
    }
    if (c == lhs) ++depth;
    if (c == rhs) {
      if (--depth == 0) return i + 1;
    }
    ++i;
  }
  return text.size();
}

}  // namespace

bool SourceFile::Tagged(size_t line, const std::string& tag) const {
  const auto has = [&](size_t l) {
    return l >= 1 && l <= tags.size() && tags[l - 1].count(tag) != 0;
  };
  return has(line) || (line > 1 && has(line - 1));
}

bool LoadSource(const std::string& path, SourceFile* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  out->path = path;
  out->raw.clear();
  out->code.clear();
  out->tags.clear();

  std::string line;
  std::istringstream lines(content);
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out->raw.push_back(line);
  }
  out->code.resize(out->raw.size());
  out->tags.resize(out->raw.size());

  enum class State { kCode, kString, kChar, kBlock };
  State state = State::kCode;
  for (size_t ln = 0; ln < out->raw.size(); ++ln) {
    const std::string& src = out->raw[ln];
    std::string& dst = out->code[ln];
    dst.reserve(src.size());
    std::string comment;  // block-comment text accumulated on this line
    size_t i = 0;
    while (i < src.size()) {
      const char c = src[i];
      switch (state) {
        case State::kCode:
          if (c == '"') {
            state = State::kString;
            dst += c;
            ++i;
          } else if (c == '\'') {
            state = State::kChar;
            dst += c;
            ++i;
          } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            HarvestTags(src.substr(i + 2), &out->tags[ln]);
            dst.append(src.size() - i, ' ');
            i = src.size();
          } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            state = State::kBlock;
            dst.append(2, ' ');
            i += 2;
          } else {
            dst += c;
            ++i;
          }
          break;
        case State::kString:
        case State::kChar:
          dst += c;
          if (c == '\\' && i + 1 < src.size()) {
            dst += src[i + 1];
            i += 2;
            break;
          }
          if ((state == State::kString && c == '"') ||
              (state == State::kChar && c == '\'')) {
            state = State::kCode;
          }
          ++i;
          break;
        case State::kBlock:
          if (c == '*' && i + 1 < src.size() && src[i + 1] == '/') {
            state = State::kCode;
            dst.append(2, ' ');
            i += 2;
          } else {
            comment += c;
            dst += ' ';
            ++i;
          }
          break;
      }
    }
    if (!comment.empty()) HarvestTags(comment, &out->tags[ln]);
    // Unterminated string literals do not span lines in well-formed code.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
  return true;
}

FlatText Flatten(const SourceFile& file) {
  FlatText flat;
  size_t total = 0;
  for (const std::string& l : file.code) total += l.size() + 1;
  flat.text.reserve(total);
  flat.line.reserve(total);
  for (size_t ln = 0; ln < file.code.size(); ++ln) {
    for (const char c : file.code[ln]) {
      flat.text += c;
      flat.line.push_back(ln + 1);
    }
    flat.text += '\n';
    flat.line.push_back(ln + 1);
  }
  return flat;
}

namespace {

/// True when flat.text[pos] starts the whole word `word`.
bool WordAt(const FlatText& flat, size_t pos, const std::string& word) {
  if (flat.text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(flat.text[pos - 1])) return false;
  const size_t end = pos + word.size();
  return end >= flat.text.size() || !IsIdentChar(flat.text[end]);
}

size_t SkipSpaces(const std::string& text, size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return i;
}

std::string JoinPath(const std::string& root, const std::string& rel) {
  if (!rel.empty() && rel.front() == '/') return rel;
  return (fs::path(root) / rel).string();
}

std::string Relative(const std::string& path, const std::string& root) {
  std::error_code ec;
  const fs::path rel = fs::proximate(path, root, ec);
  if (ec || rel.empty()) return path;
  const std::string s = rel.string();
  return s.rfind("..", 0) == 0 ? path : s;
}

bool FileInDirs(const fs::path& file, const std::vector<std::string>& dirs,
                const std::string& root) {
  const std::string canonical = fs::weakly_canonical(file).string();
  for (const std::string& dir : dirs) {
    const std::string base =
        fs::weakly_canonical(JoinPath(root, dir)).string() + "/";
    if (canonical.rfind(base, 0) == 0) return true;
  }
  return false;
}

std::vector<std::string> SourceFilesUnder(const Config& config,
                                          const std::vector<std::string>& dirs) {
  std::set<std::string> files;
  // compile_commands.json names the translation units; headers (and any
  // .cc the build forgot) come from the walk, so nothing hides by being
  // left out of the build.
  for (const std::string& file : config.compile_files) {
    if (FileInDirs(file, dirs, config.repo)) {
      files.insert(fs::weakly_canonical(file).string());
    }
  }
  for (const std::string& dir : dirs) {
    const fs::path base = JoinPath(config.repo, dir);
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") {
        files.insert(fs::weakly_canonical(it->path()).string());
      }
    }
  }
  return {files.begin(), files.end()};
}

/// Variable (or member) names declared with an unordered container type.
std::set<std::string> UnorderedNames(const FlatText& flat) {
  std::set<std::string> names;
  const std::string& text = flat.text;
  for (const char* container : {"unordered_map", "unordered_set"}) {
    size_t pos = 0;
    const std::string word = container;
    while ((pos = text.find(word, pos)) != std::string::npos) {
      const size_t after = pos + word.size();
      if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
          (after < text.size() && IsIdentChar(text[after]))) {
        pos = after;
        continue;
      }
      size_t i = SkipSpaces(text, after);
      if (i >= text.size() || text[i] != '<') {
        pos = after;
        continue;
      }
      // Match the template argument list; '>' nesting only (no shift
      // expressions appear in type positions).
      size_t depth = 0;
      while (i < text.size()) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
      i = SkipSpaces(text, i);
      while (i < text.size() && (text[i] == '&' || text[i] == '*')) {
        i = SkipSpaces(text, i + 1);
      }
      size_t end = i;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      if (end > i && IsIdentStart(text[i])) {
        names.insert(text.substr(i, end - i));
      }
      pos = after;
    }
  }
  return names;
}

}  // namespace

std::vector<Finding> CheckDeterminism(const Config& config) {
  std::vector<Finding> findings;
  for (const std::string& path :
       SourceFilesUnder(config, config.determinism_dirs)) {
    SourceFile file;
    std::string error;
    if (!LoadSource(path, &file, &error)) {
      findings.push_back({path, 0, "determinism", error});
      continue;
    }
    const FlatText flat = Flatten(file);
    const std::string rel = Relative(path, config.repo);

    // Entropy / wall-clock sources. `timing` waives the clock reads used
    // for latency metrics; ambient entropy has no waiver — inference
    // randomness must come from the seeded counter-based RNG (common/rng).
    struct Pattern {
      const char* token;
      bool call_only;    ///< require '(' after the token
      bool timing_waiver;
      const char* message;
    };
    static const Pattern kPatterns[] = {
        {"random_device", false, false,
         "ambient entropy breaks seed-reproducible inference; use the "
         "seeded Rng"},
        {"rand", true, false,
         "rand() is unseeded global state; use the seeded Rng"},
        {"srand", true, false,
         "srand() is unseeded global state; use the seeded Rng"},
        {"time", true, true,
         "wall-clock input breaks replay; annotate '// lint: timing' if "
         "this only feeds metrics"},
        {"clock", true, true,
         "wall-clock input breaks replay; annotate '// lint: timing' if "
         "this only feeds metrics"},
    };
    for (size_t ln = 0; ln < file.code.size(); ++ln) {
      const std::string& line = file.code[ln];
      for (const Pattern& p : kPatterns) {
        size_t pos = 0;
        const std::string token = p.token;
        bool hit = false;
        while ((pos = line.find(token, pos)) != std::string::npos) {
          const bool left = pos == 0 || !IsIdentChar(line[pos - 1]);
          const size_t end = pos + token.size();
          const bool right = end >= line.size() || !IsIdentChar(line[end]);
          if (left && right) {
            if (!p.call_only) {
              hit = true;
              break;
            }
            const size_t next = SkipSpaces(line, end);
            if (next < line.size() && line[next] == '(') {
              hit = true;
              break;
            }
          }
          pos = end;
        }
        if (hit && !(p.timing_waiver && file.Tagged(ln + 1, "timing"))) {
          findings.push_back({rel, ln + 1, "determinism",
                              std::string(p.token) + ": " + p.message});
        }
      }
      if (line.find("_clock::now") != std::string::npos &&
          !file.Tagged(ln + 1, "timing")) {
        findings.push_back(
            {rel, ln + 1, "determinism",
             "clock::now(): wall-clock input breaks replay; annotate "
             "'// lint: timing' if this only feeds metrics"});
      }
    }

    // Range-for over an unordered container: hash order leaks into FP
    // accumulation order and emitted sequences. Include the paired header
    // so member containers are seen from the .cc.
    std::set<std::string> unordered = UnorderedNames(flat);
    const fs::path as_path(path);
    if (as_path.extension() == ".cc") {
      const fs::path header = fs::path(path).replace_extension(".h");
      SourceFile header_file;
      if (fs::exists(header) &&
          LoadSource(header.string(), &header_file, &error)) {
        const auto extra = UnorderedNames(Flatten(header_file));
        unordered.insert(extra.begin(), extra.end());
      }
    }
    if (!unordered.empty()) {
      const std::string& text = flat.text;
      size_t pos = 0;
      while ((pos = text.find("for", pos)) != std::string::npos) {
        if (!WordAt(flat, pos, "for")) {
          pos += 3;
          continue;
        }
        size_t open = SkipSpaces(text, pos + 3);
        if (open >= text.size() || text[open] != '(') {
          pos += 3;
          continue;
        }
        const size_t close = MatchBracket(text, open, '(', ')');
        const std::string head = text.substr(open + 1, close - open - 2);
        pos = close;
        if (head.find(';') != std::string::npos) continue;  // classic for
        const size_t colon = head.rfind(':');
        if (colon == std::string::npos || (colon > 0 && head[colon - 1] == ':'))
          continue;
        std::string range = Trim(head.substr(colon + 1));
        while (!range.empty() && (range.front() == '*' || range.front() == '&'))
          range = Trim(range.substr(1));
        if (unordered.count(range) == 0) continue;
        const size_t line = flat.LineAt(open);
        if (file.Tagged(line, "unordered-ok")) continue;
        findings.push_back(
            {rel, line, "determinism",
             "range-for over unordered container '" + range +
                 "': hash order leaks into downstream data; sort before "
                 "emitting or annotate '// lint: unordered-ok'"});
      }
    }
  }
  return findings;
}

std::vector<Finding> Run(const Config& config) {
  std::vector<Finding> findings = CheckDeterminism(config);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace lint
}  // namespace veritas
