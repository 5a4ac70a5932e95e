// nas_lint: the repo-invariant checker behind the `nas_lint` CLI and the
// `nas_lint_tree` ctest.
//
// The serving stack's one contract is byte-identical answers and sink rows at
// any thread/shard/snapshot-format combination.  The compiler cannot see that
// contract: a stray `rand()`, a wall-clock read, or an iteration over a hash
// container feeding a digest compiles cleanly and only shows up — sometimes —
// as a cmp-gate failure long after the fact.  This module enforces those
// invariants statically, line by line, with exact file:line diagnostics:
//
//   banned-random           rand()/srand()/rand_r()/std::random_device/
//                           std::random_shuffle anywhere (the sanctioned
//                           seeded RNG lives in src/util/rng.hpp)
//   banned-clock            wall-clock and CPU-clock reads (system_clock,
//                           steady_clock, high_resolution_clock, time(),
//                           clock(), clock_gettime, gettimeofday) outside the
//                           timing opt-in (src/util/timer.hpp)
//   unordered-iteration     iterating a std::unordered_{map,set} (range-for
//                           or .begin()/.end() family) in src/ or tools/ —
//                           the code that feeds sinks, digests, and
//                           snapshots.  Membership tests stay fine.
//   header-pragma-once      every header carries `#pragma once`
//   header-using-namespace  no `using namespace` in headers
//   flag-description        every util::Flags accessor on the conventional
//                           `flags` receiver passes a description (the
//                           third argument), so --help stays complete
//   unchecked-io            a raw ::read/::write/::close/... result discarded
//                           in src/ or tools/
//   flag-narrowing          no named cast of a `flags.integer(...)` result
//                           (it wraps out-of-range values); integer_as<T>
//                           and run::vertex_count range-check instead
//
// Escape hatch: a `// nas-lint: allow(rule-a, rule-b)` comment on the same
// line or the line directly above suppresses those rules for that line.
// A small built-in allowlist (see `allowlist()`) exempts the files whose
// whole purpose is the banned construct; both are part of the documented
// contract, not per-call-site judgment.
//
// Matching is lexical (comments and string/char literals are stripped
// first), so the checker is fast, dependency-free, and deterministic — but
// it is a linter, not a compiler: names it tracks are per-file, and novel
// spellings can evade it.  It errs on the side of firing; allow() is the
// answer for deliberate exceptions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nas::lint {

struct Diagnostic {
  std::string file;     ///< repo-relative path, forward slashes
  std::size_t line = 0; ///< 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

struct RuleInfo {
  std::string name;
  std::string description;
};

/// The rule set, in stable (diagnostic-sorting) order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// The documented file allowlist as (rule, repo-relative path) pairs.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
allowlist();

/// Lints one file.  `path` must be repo-relative (it selects which rules
/// apply and is echoed into diagnostics verbatim).
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& path,
                                                const std::string& contents);

/// Walks src/ tools/ bench/ examples/ tests/ under `root` (skipping the
/// tests/data corpus, which contains deliberately-bad snippets) and lints
/// every .cpp/.hpp/.h.  Diagnostics come back sorted by (file, line, rule);
/// the walk itself is sorted, so output is deterministic.
[[nodiscard]] std::vector<Diagnostic> lint_tree(const std::string& root);

/// "file:line: rule: message" — the one rendering ctest and CI grep for.
[[nodiscard]] std::string render(const Diagnostic& d);

}  // namespace nas::lint
