// Golden-file regression for the unified sinks, and the paper's two
// measurable claims asserted over checked-in scenario rows.
//
// Each checked-in scenario file runs through the real Runner and its JSON/CSV
// renderings are byte-compared against checked-in corpus files, so sink
// schema drift (added/renamed/reordered columns, changed formatting) or a
// moved construction result fails ctest instead of surviving until CI's
// cross-thread cmp gate.  The pairs:
//   tests/data/golden.scenario        -> tests/data/golden_rows.*
//   bench/scenarios/s1_rounds.scenario -> tests/data/s1_rounds_rows.*
//   bench/scenarios/s2_size.scenario   -> tests/data/s2_size_rows.*
//
// Everything in the matrices is deterministic with timing off: generated
// graphs, the construction, the verifiers (bit-identical at any shard
// count), and the oracle serving digest.  The uniform workload keeps even
// the request stream libm-free, so the bytes are stable across toolchains.
//
// Regenerating after an *intentional* schema or result change:
//   NAS_UPDATE_GOLDEN=1 ./build/tests/test_golden_sinks
// then review the diff of tests/data/*_rows.{json,csv} like any other code
// change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "run/runner.hpp"
#include "run/scenario.hpp"
#include "run/sinks.hpp"

namespace {

using namespace nas;

std::string data_path(const std::string& name) {
  return std::string(NAS_TEST_DATA_DIR) + "/" + name;
}

std::string scenario_path(const std::string& name) {
  return std::string(NAS_BENCH_SCENARIO_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<run::ResultRow> run_scenario(const std::string& path) {
  const auto specs = run::ScenarioMatrix::from_file(path).expand();
  EXPECT_FALSE(specs.empty()) << path;
  run::Runner runner;
  run::RunOptions options;
  options.threads = 2;
  return runner.run(specs, options);
}

TEST(GoldenSinks, RunnerOutputMatchesCheckedInCorpus) {
  struct Golden {
    std::string scenario;  ///< scenario file path
    std::string rows;      ///< corpus basename under tests/data
  };
  const std::vector<Golden> goldens = {
      {data_path("golden.scenario"), "golden_rows"},
      {scenario_path("s1_rounds.scenario"), "s1_rounds_rows"},
      {scenario_path("s2_size.scenario"), "s2_size_rows"},
  };
  const bool update = std::getenv("NAS_UPDATE_GOLDEN") != nullptr;
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.scenario);
    const auto rows = run_scenario(golden.scenario);
    for (const auto& row : rows) {
      ASSERT_TRUE(row.passed()) << row.spec.id() << ": " << row.error;
    }
    const auto json = run::render_json(rows);
    const auto csv = run::render_csv(rows);
    const auto json_path = data_path(golden.rows + ".json");
    const auto csv_path = data_path(golden.rows + ".csv");
    if (update) {
      std::ofstream(json_path, std::ios::binary) << json;
      std::ofstream(csv_path, std::ios::binary) << csv;
      continue;
    }
    EXPECT_EQ(json, slurp(json_path))
        << "JSON sink output drifted from " << json_path
        << "; if the change is intentional, regenerate with "
           "NAS_UPDATE_GOLDEN=1";
    EXPECT_EQ(csv, slurp(csv_path))
        << "CSV sink output drifted from " << csv_path
        << "; if the change is intentional, regenerate with "
           "NAS_UPDATE_GOLDEN=1";
  }
  if (update) GTEST_SKIP() << "golden corpus regenerated; review the diff";
}

TEST(GoldenSinks, RenderingIsPureOverRows) {
  // The corpus guards bytes; this guards the contract the corpus relies on:
  // rendering the same rows twice is byte-identical (no hidden state).
  const auto rows = run_scenario(data_path("golden.scenario"));
  EXPECT_EQ(run::render_json(rows), run::render_json(rows));
  EXPECT_EQ(run::render_csv(rows), run::render_csv(rows));
}

// --- the paper's claims over the S1/S2 rows ---------------------------------

/// Least-squares slope of log y against log x.
double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  const auto count = static_cast<double>(x.size());
  double mean_x = 0, mean_y = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mean_x += std::log(x[i]) / count;
    mean_y += std::log(y[i]) / count;
  }
  double cov = 0, var = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (std::log(x[i]) - mean_x) * (std::log(y[i]) - mean_y);
    var += (std::log(x[i]) - mean_x) * (std::log(x[i]) - mean_x);
  }
  return cov / var;
}

/// Slack on every slope claim: the O() exponents are asymptotic, and the
/// schedule's ceilings make small-n rows noisy.
constexpr double kSlopeTolerance = 0.1;

/// One line per violated claim; empty when every claim holds.
///   S1: the slope of rounds vs n is at most rho + tolerance.
///   S2: per kappa, the slope of |H| vs n is at most 1 + 1/kappa +
///       tolerance; |H| at kappa = 8 is at most |H| at kappa = 3 per n.
///   Both: every row ran, was verified, and kept its stretch bound.
std::vector<std::string> claim_failures(
    const std::vector<run::ResultRow>& s1_rows,
    const std::vector<run::ResultRow>& s2_rows) {
  std::vector<std::string> failures;
  for (const auto* rows : {&s1_rows, &s2_rows}) {
    for (const auto& row : *rows) {
      if (!row.passed() || !row.verified) {
        failures.push_back(row.spec.id() + ": not verified within bound");
      }
    }
  }

  std::vector<double> ns, rounds;
  for (const auto& row : s1_rows) {
    ns.push_back(row.n);
    rounds.push_back(static_cast<double>(row.rounds));
  }
  const double rho = s1_rows.front().spec.rho;
  const double s1_slope = loglog_slope(ns, rounds);
  if (s1_slope > rho + kSlopeTolerance) {
    failures.push_back("S1 rounds slope " + run::format_real(s1_slope) +
                       " > rho + " + run::format_real(kSlopeTolerance));
  }

  std::map<int, std::vector<double>> size_ns, sizes;
  std::map<std::pair<graph::Vertex, int>, std::uint64_t> size_at;
  for (const auto& row : s2_rows) {
    size_ns[row.spec.kappa].push_back(row.n);
    sizes[row.spec.kappa].push_back(static_cast<double>(row.spanner_edges));
    size_at[{row.spec.n, row.spec.kappa}] = row.spanner_edges;
  }
  for (const auto& [kappa, edges] : sizes) {
    const double slope = loglog_slope(size_ns[kappa], edges);
    if (slope > 1.0 + 1.0 / kappa + kSlopeTolerance) {
      failures.push_back("S2 kappa=" + std::to_string(kappa) +
                         " size slope " + run::format_real(slope) +
                         " > 1 + 1/kappa + " +
                         run::format_real(kSlopeTolerance));
    }
  }
  for (const auto& [key, edges] : size_at) {
    if (key.second != 8) continue;
    const auto k3 = size_at.find({key.first, 3});
    if (k3 == size_at.end() || edges > k3->second) {
      failures.push_back("S2 n=" + std::to_string(key.first) +
                         ": |H| at kappa=8 exceeds |H| at kappa=3");
    }
  }
  return failures;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(GoldenSinks, PaperClaimsHoldOnScalingRows) {
  const auto s1 = run_scenario(scenario_path("s1_rounds.scenario"));
  const auto s2 = run_scenario(scenario_path("s2_size.scenario"));
  ASSERT_GE(s1.size(), 2u);
  ASSERT_GE(s2.size(), 2u);
  const auto failures = claim_failures(s1, s2);
  EXPECT_TRUE(failures.empty()) << joined(failures);
}

TEST(GoldenSinks, ClaimCheckRejectsSuperlinearRounds) {
  // A synthetic S1 sweep whose rounds grow as n^1.2 must trip the gate —
  // the check is shown to bite, not only to pass.
  std::vector<run::ResultRow> s1;
  for (graph::Vertex n = 512; n <= 8192; n *= 2) {
    run::ResultRow row;
    row.spec.n = n;
    row.spec.rho = 0.4;
    row.n = n;
    row.rounds = static_cast<std::uint64_t>(std::pow(n, 1.2));
    row.verified = true;
    row.report.bound_ok = true;
    s1.push_back(row);
  }
  const auto failures = claim_failures(s1, {});
  ASSERT_EQ(failures.size(), 1u) << joined(failures);
  EXPECT_NE(failures[0].find("S1 rounds slope 1.2"), std::string::npos)
      << failures[0];
}

}  // namespace
