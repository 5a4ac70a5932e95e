// The round-engine equivalence contract: the serial engine, the
// multi-threaded engine (thread counts 1, 2, 8), and synchronizer α must
// execute the same NodeProgram to bit-identical per-vertex state, with
// identical payload message counts, on every graph family.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/elkin_matar.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "substrate_harness.hpp"

namespace {

using namespace nas;
using testing_support::all_engine_specs;
using testing_support::ProgramFactory;
using testing_support::RunOutcome;
using testing_support::run_on;

struct EquivalenceCase {
  std::string family;
  graph::Vertex n;
  std::uint64_t seed;
};

class SubstrateEquivalence
    : public ::testing::TestWithParam<EquivalenceCase> {};

void expect_all_engines_match(const graph::Graph& g, std::uint64_t rounds,
                              const ProgramFactory& factory,
                              const std::string& what) {
  const auto specs = all_engine_specs();
  const RunOutcome reference = run_on(g, rounds, factory, specs.front());
  for (std::size_t i = 1; i < specs.size(); ++i) {
    const RunOutcome outcome = run_on(g, rounds, factory, specs[i]);
    EXPECT_EQ(outcome.state, reference.state)
        << what << " diverged on engine " << specs[i].label;
    EXPECT_EQ(outcome.messages, reference.messages)
        << what << " message count diverged on engine " << specs[i].label;
    EXPECT_EQ(outcome.rounds, reference.rounds)
        << what << " round count diverged on engine " << specs[i].label;
  }
}

TEST_P(SubstrateEquivalence, BfsBitIdentical) {
  const auto& tc = GetParam();
  const auto g = graph::make_workload(tc.family, tc.n, tc.seed);
  const auto rounds = static_cast<std::uint64_t>(
      graph::diameter_largest_component(g) + 2);
  expect_all_engines_match(g, rounds, testing_support::bfs_program_factory(),
                           "bfs");
}

TEST_P(SubstrateEquivalence, MinIdFloodBitIdentical) {
  const auto& tc = GetParam();
  const auto g = graph::make_workload(tc.family, tc.n, tc.seed);
  const auto rounds = static_cast<std::uint64_t>(
      graph::diameter_largest_component(g) + 2);
  expect_all_engines_match(g, rounds,
                           testing_support::min_id_program_factory(),
                           "min-id flood");
}

TEST_P(SubstrateEquivalence, MixerBitIdentical) {
  const auto& tc = GetParam();
  const auto g = graph::make_workload(tc.family, tc.n, tc.seed);
  // All-to-all traffic every round; a handful of rounds is plenty for any
  // ordering discrepancy to snowball through the hash chain.
  expect_all_engines_match(g, 6, testing_support::mixer_program_factory(),
                           "mixer");
}

INSTANTIATE_TEST_SUITE_P(
    Families, SubstrateEquivalence,
    ::testing::Values(EquivalenceCase{"er", 120, 5},
                      EquivalenceCase{"grid", 100, 7},
                      EquivalenceCase{"tree", 127, 9},
                      EquivalenceCase{"cycle", 60, 11},
                      EquivalenceCase{"dumbbell", 80, 13},
                      EquivalenceCase{"hypercube", 64, 15}),
    [](const auto& param_info) { return param_info.param.family; });

TEST(SubstrateEquivalence, CrossCheckedSpannerBuildAgreesAtEveryThreadCount) {
  // End-to-end: build_spanner's Algorithm 1 cross-check passes — i.e. the
  // event-driven run matches the engine-backed reference bit-for-bit — at
  // every cross-check engine thread count, and the spanners and ledgers are
  // identical.
  const auto g = graph::make_workload("er", 150, 21);
  const auto params = core::Params::practical(g.num_vertices(), 0.5, 3, 0.4);

  std::vector<graph::Edge> reference_edges;
  std::uint64_t reference_rounds = 0;
  std::uint64_t reference_messages = 0;
  for (const unsigned threads : {1U, 2U, 8U}) {
    const auto result = core::build_spanner(
        g, params, {.cross_check_alg1 = true, .cross_check_threads = threads});
    if (reference_edges.empty()) {
      reference_edges = result.spanner.edges();
      reference_rounds = result.ledger.rounds();
      reference_messages = result.ledger.messages();
    } else {
      EXPECT_EQ(result.spanner.edges(), reference_edges)
          << "spanner diverged at cross_check_threads " << threads;
      EXPECT_EQ(result.ledger.rounds(), reference_rounds) << threads;
      EXPECT_EQ(result.ledger.messages(), reference_messages) << threads;
    }
  }
  EXPECT_FALSE(reference_edges.empty());
}

}  // namespace
