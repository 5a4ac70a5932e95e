// nas_lint rule corpus: every rule is driven by a deliberately-bad snippet
// under tests/data/lint_corpus/ and must fire with an exact file:line:rule
// diagnostic.  The corpus lives under tests/data so lint_tree's walk skips
// it (directories named "data" hold golden files, not tree code) while this
// test feeds each file through lint_file with a virtual repo-relative path
// — which is also how the path-scoped rules (unordered-iteration, header
// hygiene, the allowlist) are exercised against paths that do not exist.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

using nas::lint::Diagnostic;
using nas::lint::lint_file;

std::string corpus(const std::string& name) {
  std::string path(NAS_TEST_DATA_DIR);
  path += "/lint_corpus/";
  path += name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// file:line:rule keys — the exact-location contract, with messages checked
// separately where the wording carries information.
std::vector<std::string> keyed(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const auto& d : diags) {
    std::string key = d.file;
    key += ':';
    key += std::to_string(d.line);
    key += ':';
    key += d.rule;
    out.push_back(key);
  }
  return out;
}

TEST(Lint, BannedRandomFiresPerCallSite) {
  const auto diags =
      lint_file("src/x/banned_random.cpp", corpus("banned_random.cpp"));
  EXPECT_EQ(keyed(diags),
            (std::vector<std::string>{
                "src/x/banned_random.cpp:6:banned-random",
                "src/x/banned_random.cpp:7:banned-random",
                "src/x/banned_random.cpp:9:banned-random",
            }));
}

TEST(Lint, BannedClockFiresPerReadSite) {
  const auto diags =
      lint_file("src/x/banned_clock.cpp", corpus("banned_clock.cpp"));
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "src/x/banned_clock.cpp:7:banned-clock",
                              "src/x/banned_clock.cpp:10:banned-clock",
                              "src/x/banned_clock.cpp:12:banned-clock",
                              "src/x/banned_clock.cpp:13:banned-clock",
                          }));
}

TEST(Lint, KernelHygieneCatchesCycleCountersAndHashOrderFrontiers) {
  // The BFS-kernel determinism contract in corpus form: a kernel-shaped
  // file must carry no clock reads (including the raw cycle counters
  // __rdtsc / __builtin_readcyclecounter) and no hash-order frontier
  // iteration.  Linted at a src/graph/ path, exactly like the real kernels.
  const std::string body = corpus("kernel_hygiene.cpp");
  const auto diags = lint_file("src/graph/kernel_hygiene.cpp", body);
  EXPECT_EQ(keyed(diags),
            (std::vector<std::string>{
                "src/graph/kernel_hygiene.cpp:9:banned-clock",
                "src/graph/kernel_hygiene.cpp:12:banned-clock",
                "src/graph/kernel_hygiene.cpp:14:banned-clock",
                "src/graph/kernel_hygiene.cpp:19:unordered-iteration",
            }));
  // The clock findings name the cycle counters so the fix is obvious.
  EXPECT_NE(diags[1].message.find("__rdtsc"), std::string::npos);
  EXPECT_NE(diags[2].message.find("__builtin_readcyclecounter"),
            std::string::npos);
  // banned-clock is unscoped — the cycle counters stay banned even in
  // bench/ — while the frontier-iteration rule is src/+tools/ scoped.
  const auto bench_diags = lint_file("bench/kernel_hygiene.cpp", body);
  EXPECT_EQ(keyed(bench_diags),
            (std::vector<std::string>{
                "bench/kernel_hygiene.cpp:9:banned-clock",
                "bench/kernel_hygiene.cpp:12:banned-clock",
                "bench/kernel_hygiene.cpp:14:banned-clock",
            }));
}

TEST(Lint, UnorderedIterationFiresInsideSrcScope) {
  const auto diags = lint_file("src/core/unordered_iteration.cpp",
                               corpus("unordered_iteration.cpp"));
  ASSERT_EQ(keyed(diags),
            (std::vector<std::string>{
                "src/core/unordered_iteration.cpp:10:unordered-iteration",
                "src/core/unordered_iteration.cpp:15:unordered-iteration",
                "src/core/unordered_iteration.cpp:15:unordered-iteration",
            }));
  // The messages name the offending container and call form.
  EXPECT_NE(diags[0].message.find("'counts'"), std::string::npos);
  EXPECT_NE(diags[1].message.find("'seen.begin()'"), std::string::npos);
  EXPECT_NE(diags[2].message.find("'seen.end()'"), std::string::npos);
}

TEST(Lint, UnorderedIterationScopedToSrcAndTools) {
  // The same content outside src/ and tools/ (bench, tests) is exempt:
  // hash-order iteration only matters where bytes can reach sinks,
  // digests, or snapshots.
  const std::string body = corpus("unordered_iteration.cpp");
  EXPECT_TRUE(lint_file("bench/unordered_iteration.cpp", body).empty());
  EXPECT_TRUE(lint_file("tests/unordered_iteration.cpp", body).empty());
  EXPECT_FALSE(lint_file("tools/unordered_iteration.cpp", body).empty());
}

TEST(Lint, HeaderHygieneFiresOnHeadersOnly) {
  const std::string body = corpus("header_hygiene.hpp");
  const auto diags = lint_file("src/x/header_hygiene.hpp", body);
  EXPECT_EQ(keyed(diags),
            (std::vector<std::string>{
                "src/x/header_hygiene.hpp:1:header-pragma-once",
                "src/x/header_hygiene.hpp:5:header-using-namespace",
            }));
  // The same content in a .cpp is fine: both rules are header-scoped.
  EXPECT_TRUE(lint_file("src/x/header_hygiene.cpp", body).empty());
}

TEST(Lint, FlagDescriptionFiresOnMissingThirdArgument) {
  const auto diags =
      lint_file("tools/flag_description.cpp", corpus("flag_description.cpp"));
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "tools/flag_description.cpp:6:flag-description",
                              "tools/flag_description.cpp:7:flag-description",
                              "tools/flag_description.cpp:12:flag-description",
                          }));
}

TEST(Lint, UncheckedIoFiresOnDiscardedResultsOnly) {
  const auto diags =
      lint_file("src/x/unchecked_io.cpp", corpus("unchecked_io.cpp"));
  // Statement-position calls fire (including one whose argument list spans
  // lines); every consuming form — assignment, condition, the sanctioned
  // rc-discard, unqualified and member calls, expressions — stays silent.
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "src/x/unchecked_io.cpp:7:unchecked-io",
                              "src/x/unchecked_io.cpp:8:unchecked-io",
                              "src/x/unchecked_io.cpp:10:unchecked-io",
                              "src/x/unchecked_io.cpp:12:unchecked-io",
                          }));
  // The message names the call and spells out the sanctioned discard.
  EXPECT_NE(diags[0].message.find("::close()"), std::string::npos);
  EXPECT_NE(diags[0].message.find("static_cast<void>(rc)"),
            std::string::npos);
}

TEST(Lint, UncheckedIoScopedToSrcAndTools) {
  // Like unordered-iteration, the rule only patrols src/ and tools/ —
  // bench and test code may shortcut IO error handling.
  const std::string body = corpus("unchecked_io.cpp");
  EXPECT_TRUE(lint_file("bench/unchecked_io.cpp", body).empty());
  EXPECT_TRUE(lint_file("tests/unchecked_io.cpp", body).empty());
  EXPECT_FALSE(lint_file("tools/unchecked_io.cpp", body).empty());
}

TEST(Lint, FlagNarrowingFiresOnCastsOfIntegerFlags) {
  const auto diags =
      lint_file("bench/flag_narrowing.cpp", corpus("flag_narrowing.cpp"));
  // Each cast is reported on the line of its cast keyword, also when the
  // flags.integer() operand sits on the next line; integer_as<T>, a call
  // that range-checks (vertex_count), an uncast read, another receiver and
  // string contents stay silent.
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "bench/flag_narrowing.cpp:5:flag-narrowing",
                              "bench/flag_narrowing.cpp:6:flag-narrowing",
                              "bench/flag_narrowing.cpp:8:flag-narrowing",
                          }));
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags[0].message.find("flags.integer_as<T>()"),
            std::string::npos);
}

TEST(Lint, AllowCommentSuppressesExactlyTheNamedRule) {
  const auto diags =
      lint_file("src/x/allow_comment.cpp", corpus("allow_comment.cpp"));
  // Lines 5 (same-line allow) and 7 (previous-line allow) are suppressed;
  // line 8's allow names the wrong rule, so it still fires.
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "src/x/allow_comment.cpp:8:banned-random",
                              "src/x/allow_comment.cpp:9:banned-random",
                          }));
}

TEST(Lint, AllowlistIsPerRulePerFile) {
  // src/util/timer.hpp is the documented banned-clock opt-in: clock reads
  // are suppressed there, but every other rule still applies (this corpus
  // body has no '#pragma once', and that finding survives).
  const std::string body = corpus("banned_clock.cpp");
  const auto diags = lint_file("src/util/timer.hpp", body);
  EXPECT_EQ(keyed(diags), (std::vector<std::string>{
                              "src/util/timer.hpp:1:header-pragma-once",
                          }));
  // The same content at a non-allowlisted header path keeps all findings.
  EXPECT_EQ(lint_file("src/x/other.hpp", body).size(), 5u);
}

TEST(Lint, CommentsAndStringsAreInvisible) {
  EXPECT_TRUE(lint_file("src/x/clean.cpp", corpus("clean.cpp")).empty());
}

TEST(Lint, RenderFormatsFileLineRuleMessage) {
  const auto diags =
      lint_file("src/x/banned_random.cpp", corpus("banned_random.cpp"));
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(nas::lint::render(diags[0]),
            "src/x/banned_random.cpp:6: banned-random: rand() is "
            "nondeterministic; use util::Xoshiro256 seeded from the scenario "
            "(src/util/rng.hpp)");
}

TEST(Lint, RuleRegistryMatchesDocumentedSet) {
  std::vector<std::string> names;
  names.reserve(nas::lint::rules().size());
  for (const auto& rule : nas::lint::rules()) names.push_back(rule.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "banned-random",
                       "banned-clock",
                       "unordered-iteration",
                       "header-pragma-once",
                       "header-using-namespace",
                       "flag-description",
                       "unchecked-io",
                       "flag-narrowing",
                   }));
  // The allowlist stays tiny and documented: the two opt-in headers.
  EXPECT_EQ(nas::lint::allowlist().size(), 2u);
}

}  // namespace
