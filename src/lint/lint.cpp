#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace nas::lint {

namespace {

// Rule names — one spelling, used by diagnostics, allow() comments, and
// --list-rules alike.
constexpr const char* kBannedRandom = "banned-random";
constexpr const char* kBannedClock = "banned-clock";
constexpr const char* kUnorderedIteration = "unordered-iteration";
constexpr const char* kHeaderPragmaOnce = "header-pragma-once";
constexpr const char* kHeaderUsingNamespace = "header-using-namespace";
constexpr const char* kFlagDescription = "flag-description";
constexpr const char* kUncheckedIo = "unchecked-io";
constexpr const char* kFlagNarrowing = "flag-narrowing";

[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool has_prefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool is_header_path(const std::string& path) {
  return has_suffix(path, ".hpp") || has_suffix(path, ".h");
}

// --- comment/string stripping ------------------------------------------------

/// The linted view of a file: `code` is the original text with comments,
/// string literals, and char literals blanked to spaces (line structure and
/// column positions preserved); `raw` keeps the original lines so allow()
/// comments stay visible after stripping.
struct Stripped {
  std::vector<std::string> code;
  std::vector<std::string> raw;
};

[[nodiscard]] Stripped strip(const std::string& contents) {
  Stripped out;
  std::istringstream in(contents);
  std::string line;
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  while (std::getline(in, line)) {
    out.raw.push_back(line);
    std::string code = line;
    for (std::size_t i = 0; i < code.size();) {
      switch (state) {
        case State::kCode: {
          const char c = code[i];
          if (c == '/' && i + 1 < code.size() && code[i + 1] == '/') {
            for (std::size_t j = i; j < code.size(); ++j) code[j] = ' ';
            i = code.size();
          } else if (c == '/' && i + 1 < code.size() && code[i + 1] == '*') {
            code[i] = ' ';
            code[i + 1] = ' ';
            i += 2;
            state = State::kBlockComment;
          } else if (c == 'R' && i + 1 < code.size() && code[i + 1] == '"' &&
                     (i == 0 || !is_ident_char(code[i - 1]))) {
            std::size_t j = i + 2;
            while (j < code.size() && code[j] != '(') ++j;
            // Assemble via += (GCC 12's -Wrestrict false positive PR105651
            // flags `"x" + rvalue string`).
            raw_delim = ")";
            raw_delim += code.substr(i + 2, j - (i + 2));
            raw_delim += '"';
            for (std::size_t k = i; k < code.size() && k <= j; ++k) {
              code[k] = ' ';
            }
            i = j + 1;
            state = State::kRawString;
          } else if (c == '"') {
            code[i] = ' ';
            ++i;
            state = State::kString;
          } else if (c == '\'') {
            code[i] = ' ';
            ++i;
            state = State::kChar;
          } else {
            ++i;
          }
          break;
        }
        case State::kBlockComment: {
          if (code[i] == '*' && i + 1 < code.size() && code[i + 1] == '/') {
            code[i] = ' ';
            code[i + 1] = ' ';
            i += 2;
            state = State::kCode;
          } else {
            code[i] = ' ';
            ++i;
          }
          break;
        }
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (code[i] == '\\' && i + 1 < code.size()) {
            code[i] = ' ';
            code[i + 1] = ' ';
            i += 2;
          } else if (code[i] == quote) {
            code[i] = ' ';
            ++i;
            state = State::kCode;
          } else {
            code[i] = ' ';
            ++i;
          }
          break;
        }
        case State::kRawString: {
          const std::size_t hit = code.find(raw_delim, i);
          if (hit == std::string::npos) {
            for (std::size_t j = i; j < code.size(); ++j) code[j] = ' ';
            i = code.size();
          } else {
            for (std::size_t j = i; j < hit + raw_delim.size(); ++j) {
              code[j] = ' ';
            }
            i = hit + raw_delim.size();
            state = State::kCode;
          }
          break;
        }
      }
    }
    // Ordinary string/char literals do not span lines; an unterminated one
    // (or a trailing backslash continuation) resets at EOL rather than
    // swallowing the rest of the file.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    out.code.push_back(std::move(code));
  }
  return out;
}

// --- allow() comments --------------------------------------------------------

/// Rules suppressed on `line_index` (0-based) by a `nas-lint: allow(...)`
/// comment on that line or the one directly above.
[[nodiscard]] std::set<std::string> allowed_rules(
    const std::vector<std::string>& raw, std::size_t line_index) {
  std::set<std::string> allowed;
  const auto scan = [&allowed](const std::string& line) {
    constexpr const char* kTag = "nas-lint: allow(";
    std::size_t pos = line.find(kTag);
    if (pos == std::string::npos) return;
    pos += std::string(kTag).size();
    const std::size_t close = line.find(')', pos);
    if (close == std::string::npos) return;
    std::string inside = line.substr(pos, close - pos);
    std::istringstream items(inside);
    std::string item;
    while (std::getline(items, item, ',')) {
      const auto begin = item.find_first_not_of(" \t");
      const auto end = item.find_last_not_of(" \t");
      if (begin != std::string::npos) {
        allowed.insert(item.substr(begin, end - begin + 1));
      }
    }
  };
  scan(raw[line_index]);
  if (line_index > 0) scan(raw[line_index - 1]);
  return allowed;
}

// --- token scanning helpers --------------------------------------------------

/// First position at or after `from` where `word` appears with non-identifier
/// characters (or line edges) on both sides; npos when absent.
[[nodiscard]] std::size_t find_word(const std::string& line,
                                    const std::string& word,
                                    std::size_t from) {
  for (std::size_t pos = line.find(word, from); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= line.size() || !is_ident_char(line[after]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

/// True when the first non-space character after `pos` is `expected`.
[[nodiscard]] bool next_nonspace_is(const std::string& line, std::size_t pos,
                                    char expected) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
    ++pos;
  }
  return pos < line.size() && line[pos] == expected;
}

/// The leading identifier of `text` (after optional whitespace, `*`, `&`,
/// and a `const ` qualifier); empty when `text` starts with anything else.
[[nodiscard]] std::string leading_identifier(std::string text) {
  std::size_t begin = text.find_first_not_of(" \t*&");
  if (begin == std::string::npos) return "";
  text = text.substr(begin);
  if (has_prefix(text, "const ")) {
    return leading_identifier(text.substr(6));
  }
  std::size_t end = 0;
  while (end < text.size() && is_ident_char(text[end])) ++end;
  return text.substr(0, end);
}

// --- per-rule context --------------------------------------------------------

struct FileContext {
  std::string path;
  Stripped stripped;
  std::vector<Diagnostic> diagnostics;

  void report(std::size_t line_index, const std::string& rule,
              const std::string& message) {
    if (allowed_rules(stripped.raw, line_index).count(rule) != 0) return;
    diagnostics.push_back({path, line_index + 1, rule, message});
  }
};

[[nodiscard]] bool file_allowlisted(const std::string& rule,
                                    const std::string& path) {
  for (const auto& [allowed_rule, allowed_path] : allowlist()) {
    if (allowed_rule == rule && allowed_path == path) return true;
  }
  return false;
}

// banned-random: the sanctioned randomness is the seeded Xoshiro in
// src/util/rng.hpp; everything else makes a run irreproducible.
void check_banned_random(FileContext& ctx) {
  if (file_allowlisted(kBannedRandom, ctx.path)) return;
  static const std::vector<std::string> kCalls = {"rand", "srand", "rand_r"};
  static const std::vector<std::string> kWords = {"random_device",
                                                  "random_shuffle"};
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    const auto& line = ctx.stripped.code[i];
    for (const auto& call : kCalls) {
      for (std::size_t pos = find_word(line, call, 0);
           pos != std::string::npos;
           pos = find_word(line, call, pos + 1)) {
        if (pos > 0 && line[pos - 1] == '.') continue;  // member of another
        if (!next_nonspace_is(line, pos + call.size(), '(')) continue;
        ctx.report(i, kBannedRandom,
                   call + "() is nondeterministic; use util::Xoshiro256 "
                          "seeded from the scenario (src/util/rng.hpp)");
      }
    }
    for (const auto& word : kWords) {
      if (find_word(line, word, 0) != std::string::npos) {
        ctx.report(i, kBannedRandom,
                   "std::" + word + " is nondeterministic; use "
                                    "util::Xoshiro256 seeded from the "
                                    "scenario (src/util/rng.hpp)");
      }
    }
  }
}

// banned-clock: wall-clock reads belong behind the timing opt-in
// (util::Timer); anywhere else they leak run-dependent values into output.
void check_banned_clock(FileContext& ctx) {
  if (file_allowlisted(kBannedClock, ctx.path)) return;
  static const std::vector<std::string> kWords = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "__rdtsc",
      "__builtin_readcyclecounter"};
  static const std::vector<std::string> kCalls = {"time", "clock"};
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    const auto& line = ctx.stripped.code[i];
    for (const auto& word : kWords) {
      if (find_word(line, word, 0) != std::string::npos) {
        ctx.report(i, kBannedClock,
                   word + " reads the clock; route timing through "
                          "util::Timer (src/util/timer.hpp) so it stays a "
                          "timing-only column");
      }
    }
    for (const auto& call : kCalls) {
      for (std::size_t pos = find_word(line, call, 0);
           pos != std::string::npos;
           pos = find_word(line, call, pos + 1)) {
        if (pos > 0 && line[pos - 1] == '.') continue;  // member call
        if (!next_nonspace_is(line, pos + call.size(), '(')) continue;
        ctx.report(i, kBannedClock,
                   call + "() reads the clock; route timing through "
                          "util::Timer (src/util/timer.hpp)");
      }
    }
  }
}

// unordered-iteration: collect names declared as std::unordered_{map,set}
// in this file, then flag range-for loops over them and .begin()/.end()
// family calls on them.  Scope: src/ and tools/ — the code that feeds
// sinks, digests, and snapshots.
void check_unordered_iteration(FileContext& ctx) {
  if (!has_prefix(ctx.path, "src/") && !has_prefix(ctx.path, "tools/")) {
    return;
  }
  if (file_allowlisted(kUnorderedIteration, ctx.path)) return;
  const auto& code = ctx.stripped.code;

  // Pass 1: declared names.  After `unordered_map<...>` / `unordered_set<...>`
  // (angle brackets balanced, possibly across lines) the next identifier —
  // past `>`, `&`, `*`, whitespace — is the declared name.
  std::set<std::string> unordered_names;
  static const std::vector<std::string> kContainers = {"unordered_map",
                                                       "unordered_set"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const std::string& container : kContainers) {
      for (std::size_t pos = find_word(code[i], container, 0);
           pos != std::string::npos;
           pos = find_word(code[i], container, pos + 1)) {
        std::size_t line_no = i;
        std::size_t at = pos + container.size();
        if (at >= code[line_no].size() || code[line_no][at] != '<') continue;
        int depth = 0;
        bool closed = false;
        // Balance <> across at most a handful of lines — declarations are
        // short; a runaway scan means a parse the linter cannot follow.
        for (std::size_t scanned = 0; scanned < 8 && !closed; ++scanned) {
          const auto& l = code[line_no];
          for (; at < l.size(); ++at) {
            if (l[at] == '<') ++depth;
            if (l[at] == '>') {
              --depth;
              if (depth == 0) {
                closed = true;
                ++at;
                break;
              }
            }
          }
          if (!closed) {
            if (line_no + 1 >= code.size()) break;
            ++line_no;
            at = 0;
          }
        }
        if (!closed) continue;
        // Skip reference/pointer markers and whitespace; a second `>` means
        // we were a nested template argument (vector<unordered_set<V>>) —
        // step past it and keep going: the outer declaration still names a
        // container whose elements are unordered.
        std::string tail = code[line_no].substr(at);
        std::size_t skip = 0;
        while (skip < tail.size() &&
               (tail[skip] == ' ' || tail[skip] == '>' || tail[skip] == '&' ||
                tail[skip] == '*')) {
          ++skip;
        }
        const std::string name = leading_identifier(tail.substr(skip));
        if (!name.empty()) unordered_names.insert(name);
      }
    }
  }
  if (unordered_names.empty()) return;

  // Pass 2a: range-for over a tracked name.
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (std::size_t pos = find_word(code[i], "for", 0);
         pos != std::string::npos; pos = find_word(code[i], "for", pos + 1)) {
      // Join the for-header across lines up to the matching ')'.
      std::string header;
      std::size_t line_no = i;
      std::size_t at = pos + 3;
      int depth = 0;
      bool closed = false;
      for (std::size_t scanned = 0; scanned < 8 && !closed; ++scanned) {
        const auto& l = code[line_no];
        for (; at < l.size(); ++at) {
          if (l[at] == '(') ++depth;
          if (l[at] == ')') {
            --depth;
            if (depth == 0) {
              closed = true;
              break;
            }
          }
          if (depth >= 1) header += l[at];
        }
        if (!closed) {
          header += ' ';
          if (line_no + 1 >= code.size()) break;
          ++line_no;
          at = 0;
        }
      }
      if (!closed) continue;
      // Range-for: a single `:` at top level that is not part of `::`.
      std::size_t colon = std::string::npos;
      for (std::size_t j = 1; j + 1 < header.size() + 1 && j < header.size();
           ++j) {
        if (header[j] != ':') continue;
        if (header[j - 1] == ':' || (j + 1 < header.size() &&
                                     header[j + 1] == ':')) {
          continue;
        }
        colon = j;
        break;
      }
      if (colon == std::string::npos) continue;
      const std::string name = leading_identifier(header.substr(colon + 1));
      if (unordered_names.count(name) != 0) {
        ctx.report(i, kUnorderedIteration,
                   "range-for over unordered container '" + name +
                       "' has hash-layout order; iterate a sorted/"
                       "first-appearance sequence instead");
      }
    }
  }

  // Pass 2b: .begin()/.end() family on a tracked name.
  static const std::vector<std::string> kIters = {
      "begin", "end", "cbegin", "cend", "rbegin", "rend"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto& line = code[i];
    for (const auto& name : unordered_names) {
      for (std::size_t pos = find_word(line, name, 0);
           pos != std::string::npos;
           pos = find_word(line, name, pos + 1)) {
        if (pos > 0 && line[pos - 1] == '.') continue;  // other.name.begin()
        std::size_t at = pos + name.size();
        if (at >= line.size() || line[at] != '.') continue;
        ++at;
        for (const auto& iter : kIters) {
          if (line.compare(at, iter.size(), iter) == 0 &&
              next_nonspace_is(line, at + iter.size(), '(')) {
            // Assemble via += (GCC 12's -Wrestrict false positive PR105651
            // flags `"x" + rvalue string`).
            std::string message = "'";
            message += name;
            message += ".";
            message += iter;
            message +=
                "()' iterates an unordered container in hash-layout order; "
                "iterate a sorted/first-appearance sequence instead";
            ctx.report(i, kUnorderedIteration, message);
          }
        }
      }
    }
  }
}

// header-pragma-once + header-using-namespace.
void check_header_hygiene(FileContext& ctx) {
  if (!is_header_path(ctx.path)) return;
  bool has_pragma = false;
  for (const auto& line : ctx.stripped.code) {
    if (line.find("#pragma once") != std::string::npos) {
      has_pragma = true;
      break;
    }
  }
  if (!has_pragma && !ctx.stripped.code.empty()) {
    ctx.report(0, kHeaderPragmaOnce, "header is missing '#pragma once'");
  }
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (find_word(ctx.stripped.code[i], "using", 0) != std::string::npos) {
      const auto pos = find_word(ctx.stripped.code[i], "using", 0);
      const auto rest = ctx.stripped.code[i].substr(pos + 5);
      if (leading_identifier(rest) == "namespace") {
        ctx.report(i, kHeaderUsingNamespace,
                   "'using namespace' in a header leaks into every includer; "
                   "qualify names or alias instead");
      }
    }
  }
}

// flag-description: `flags.str/integer/integer_as<T>/real/boolean(...)` must
// pass a description (the third argument) so `--help` stays complete.  Keyed
// on the conventional `flags` receiver used by every CLI/bench/example binary.
void check_flag_description(FileContext& ctx) {
  static const std::vector<std::string> kAccessors = {
      "str", "integer", "integer_as", "real", "boolean"};
  const auto& code = ctx.stripped.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto& line = code[i];
    for (std::size_t pos = find_word(line, "flags", 0);
         pos != std::string::npos; pos = find_word(line, "flags", pos + 1)) {
      if (pos > 0 && line[pos - 1] == '.') continue;
      std::size_t at = pos + 5;
      if (at >= line.size() || line[at] != '.') continue;
      ++at;
      std::string accessor;
      for (const auto& candidate : kAccessors) {
        if (line.compare(at, candidate.size(), candidate) == 0 &&
            at + candidate.size() < line.size() &&
            (line[at + candidate.size()] == '(' ||
             line[at + candidate.size()] == '<')) {
          accessor = candidate;
        }
      }
      if (accessor.empty()) continue;
      // Count top-level commas in the balanced argument list (it may span
      // lines); fewer than two means the description was dropped.
      std::size_t line_no = i;
      std::size_t scan = at + accessor.size();
      int depth = 0;
      std::size_t commas = 0;
      bool closed = false;
      bool empty_args = true;
      for (std::size_t scanned = 0; scanned < 16 && !closed; ++scanned) {
        const auto& l = code[line_no];
        for (; scan < l.size(); ++scan) {
          const char c = l[scan];
          if (c == '(' || c == '[' || c == '{') ++depth;
          if (c == ')' || c == ']' || c == '}') {
            --depth;
            if (depth == 0) {
              closed = true;
              break;
            }
          }
          if (depth == 1 && c == ',') ++commas;
          if (depth >= 1 && std::isspace(static_cast<unsigned char>(c)) == 0 &&
              c != '(') {
            empty_args = false;
          }
        }
        if (!closed) {
          if (line_no + 1 >= code.size()) break;
          ++line_no;
          scan = 0;
        }
      }
      if (!closed || empty_args) continue;
      if (commas < 2) {
        ctx.report(i, kFlagDescription,
                   "flags." + accessor +
                       "() without a description; pass the third argument "
                       "so --help lists this flag");
      }
    }
  }
}

// flag-narrowing: a named cast whose operand is a `flags.integer(...)` call
// (`static_cast<int>(flags.integer("kappa", 3, "kappa"))`) wraps an
// out-of-range value silently — `--kappa 4294967299` ran as kappa = 3.
// `flags.integer_as<T>()` range-checks instead, and `run::vertex_count`
// does for vertex counts.  Keyed on the conventional `flags` receiver, like
// flag-description; the cast may span lines.
void check_flag_narrowing(FileContext& ctx) {
  const auto& code = ctx.stripped.code;
  // Moves (line, col) to the last code character strictly before it,
  // looking across lines; false at the start of the file.
  const auto previous = [&code](std::size_t& line, std::size_t& col) {
    for (;;) {
      const std::size_t last =
          col == 0 ? std::string::npos
                   : code[line].find_last_not_of(" \t", col - 1);
      if (last != std::string::npos) {
        col = last;
        return true;
      }
      if (line == 0) return false;
      --line;
      col = code[line].size();
    }
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto& text = code[i];
    for (std::size_t pos = find_word(text, "flags", 0);
         pos != std::string::npos; pos = find_word(text, "flags", pos + 1)) {
      if (pos > 0 && text[pos - 1] == '.') continue;
      if (text.compare(pos + 5, 9, ".integer(") != 0) continue;
      // Walk back: `(`, then the `>` closing the cast's template argument,
      // its matching `<`, and the cast keyword in front of it.
      std::size_t line = i;
      std::size_t col = pos;
      if (!previous(line, col) || code[line][col] != '(') continue;
      if (!previous(line, col) || code[line][col] != '>') continue;
      int depth = 1;
      while (depth > 0 && previous(line, col)) {
        if (code[line][col] == '>') ++depth;
        if (code[line][col] == '<') --depth;
      }
      if (depth != 0 || !previous(line, col)) continue;
      const std::size_t end = col + 1;
      while (col > 0 && is_ident_char(code[line][col - 1])) --col;
      if (!has_suffix(code[line].substr(col, end - col), "_cast")) continue;
      ctx.report(line, kFlagNarrowing,
                 "cast of flags.integer() wraps out-of-range values "
                 "silently; use flags.integer_as<T>() (run::vertex_count "
                 "for vertex counts)");
    }
  }
}

// unchecked-io: a raw POSIX transfer call (`::read`, `::write`, ...) whose
// result is discarded loses short transfers and EINTR silently, and a bare
// `::close` before error reporting is the classic errno clobber.  The rule
// flags these calls in *statement position* — the last code character
// before the `::` (looking across lines) is `{`, `}`, `;`, or nothing —
// which is exactly a discarded result; assignments, conditions, and returns
// all consume the value and pass.  Scope: src/ and tools/, like the other
// determinism rules.  Deliberate discards use the reviewed pattern
// `const int rc = ::close(fd); static_cast<void>(rc);`.
void check_unchecked_io(FileContext& ctx) {
  if (!has_prefix(ctx.path, "src/") && !has_prefix(ctx.path, "tools/")) {
    return;
  }
  if (file_allowlisted(kUncheckedIo, ctx.path)) return;
  static const std::vector<std::string> kCalls = {
      "read", "write", "send", "recv", "pread", "pwrite", "close"};
  const auto& code = ctx.stripped.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto& line = code[i];
    for (const auto& call : kCalls) {
      for (std::size_t pos = find_word(line, call, 0);
           pos != std::string::npos;
           pos = find_word(line, call, pos + 1)) {
        // Only the global-namespace spelling `::call(` — member functions
        // and same-named locals are someone else's API.
        if (pos < 2 || line[pos - 1] != ':' || line[pos - 2] != ':') continue;
        if (pos >= 3 && (line[pos - 3] == ':' || is_ident_char(line[pos - 3]))) {
          continue;  // a::b::read — qualified, not the global namespace
        }
        if (!next_nonspace_is(line, pos + call.size(), '(')) continue;
        // Statement position: walk back past whitespace (across lines) to
        // the last code character before the `::`.
        char before = '\0';
        std::size_t line_no = i;
        std::size_t at = pos - 2;
        for (;;) {
          const auto& l = code[line_no];
          const std::size_t last = l.find_last_not_of(" \t", at > 0 ? at - 1
                                                                    : 0);
          if (at > 0 && last != std::string::npos && last < at) {
            before = l[last];
            break;
          }
          if (line_no == 0) break;
          --line_no;
          at = code[line_no].size();
        }
        if (before != '\0' && before != '{' && before != '}' && before != ';') {
          continue;  // result consumed (assignment/condition/return/cast)
        }
        ctx.report(i, kUncheckedIo,
                   "::" + call +
                       "() result discarded: short transfers, EINTR, and the "
                       "failing call's errno get lost; consume the result "
                       "(or for a deliberate discard: `const int rc = ::" +
                       call + "(...); static_cast<void>(rc);`)");
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {kBannedRandom,
       "rand()/srand()/rand_r()/std::random_device/std::random_shuffle "
       "anywhere; seeded util::Xoshiro256 is the one randomness source"},
      {kBannedClock,
       "system_clock/steady_clock/high_resolution_clock/time()/clock()/"
       "clock_gettime/gettimeofday/__rdtsc/__builtin_readcyclecounter "
       "outside the timing opt-in (src/util/timer.hpp)"},
      {kUnorderedIteration,
       "range-for or .begin()/.end() over a std::unordered_{map,set} in "
       "src/ or tools/ (hash-layout order feeds sinks/digests/snapshots); "
       "membership tests are fine"},
      {kHeaderPragmaOnce, "every header starts with '#pragma once'"},
      {kHeaderUsingNamespace, "no 'using namespace' in headers"},
      {kFlagDescription,
       "every util::Flags accessor on the conventional 'flags' receiver "
       "passes a description (third argument)"},
      {kUncheckedIo,
       "::read/::write/::send/::recv/::pread/::pwrite/::close in statement "
       "position in src/ or tools/ (result discarded: short transfers, "
       "EINTR, and errno are lost); deliberate discards use "
       "`const int rc = ::close(fd); static_cast<void>(rc);`"},
      {kFlagNarrowing,
       "a named cast (static_cast<T>(...)) of a flags.integer() call; use "
       "flags.integer_as<T>() or run::vertex_count, which range-check"},
  };
  return kRules;
}

const std::vector<std::pair<std::string, std::string>>& allowlist() {
  // The two files whose whole purpose is the banned construct.  Everything
  // else goes through them — or carries an inline, reviewed allow().
  static const std::vector<std::pair<std::string, std::string>> kAllow = {
      {kBannedClock, "src/util/timer.hpp"},
      {kBannedRandom, "src/util/rng.hpp"},
  };
  return kAllow;
}

std::vector<Diagnostic> lint_file(const std::string& path,
                                  const std::string& contents) {
  FileContext ctx{path, strip(contents), {}};
  check_banned_random(ctx);
  check_banned_clock(ctx);
  check_unordered_iteration(ctx);
  check_header_hygiene(ctx);
  check_flag_description(ctx);
  check_unchecked_io(ctx);
  check_flag_narrowing(ctx);

  // Stable order: by line, then rule-set order, independent of check order.
  std::map<std::string, std::size_t> rule_rank;
  for (std::size_t r = 0; r < rules().size(); ++r) {
    rule_rank[rules()[r].name] = r;
  }
  std::sort(ctx.diagnostics.begin(), ctx.diagnostics.end(),
            [&rule_rank](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return rule_rank.at(a.rule) < rule_rank.at(b.rule);
            });
  return ctx.diagnostics;
}

std::vector<Diagnostic> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  static const std::vector<std::string> kDirs = {"src", "tools", "bench",
                                                 "examples", "tests"};
  const fs::path base(root);
  std::vector<std::string> files;
  for (const auto& dir : kDirs) {
    const fs::path top = base / dir;
    if (!fs::exists(top)) continue;
    for (auto it = fs::recursive_directory_iterator(top);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "data") {
        // tests/data holds golden files and the deliberately-bad lint
        // corpus; neither is tree code.
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string rel =
          fs::relative(it->path(), base).generic_string();
      if (has_suffix(rel, ".cpp") || has_suffix(rel, ".hpp") ||
          has_suffix(rel, ".h")) {
        files.push_back(rel);
      }
    }
  }
  // Directory iteration order is unspecified; the linter itself obeys the
  // determinism contract.
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> all;
  for (const auto& rel : files) {
    std::ifstream in(base / rel, std::ios::binary);
    if (!in) {
      throw std::runtime_error("nas_lint: cannot read " + rel);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto diags = lint_file(rel, buf.str());
    all.insert(all.end(), diags.begin(), diags.end());
  }
  return all;
}

std::string render(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

}  // namespace nas::lint
