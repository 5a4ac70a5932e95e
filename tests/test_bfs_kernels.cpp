// Tests for the direction-optimizing BFS kernel layer (graph/bfs_kernel).
//
// The contract under test is byte-identity: distances are level structure,
// independent of traversal order and direction, so top-down, hybrid, and
// auto must produce identical distance arrays on every graph — and the
// serving layer built on them must produce identical answers at every
// thread count.  The epoch-tagged scratch additionally has a 16-bit wrap
// path that only fires after 65535 reuses; that wrap is exercised here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace {

using namespace nas;
using graph::BfsKernel;
using graph::BfsKernelStats;
using graph::BfsScratch;
using graph::Csr;
using graph::Graph;
using graph::kInfDist;
using graph::Vertex;

constexpr std::array<BfsKernel, 3> kKernels = {
    BfsKernel::kTopDown, BfsKernel::kHybrid, BfsKernel::kAuto};

/// Distance array via the retired-queue-compatible reference (graph::bfs).
std::vector<std::uint32_t> reference_dist(const Graph& g, Vertex s) {
  return graph::bfs(g, s).dist;
}

/// Distance array via the kernel under test, through a fresh scratch.
std::vector<std::uint32_t> kernel_dist(const Csr& csr, Vertex s,
                                       BfsKernel kernel) {
  BfsScratch scratch;
  scratch.run(csr, s, kernel);
  std::vector<std::uint32_t> dist(csr.num_vertices());
  scratch.copy_distances(dist);
  return dist;
}

void expect_all_kernels_match_reference(const Graph& g,
                                        const std::string& what) {
  const auto csr = Csr::from_graph(g);
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    const auto want = reference_dist(g, s);
    for (const auto kernel : kKernels) {
      EXPECT_EQ(kernel_dist(csr, s, kernel), want)
          << what << ", source " << s << ", kernel "
          << graph::bfs_kernel_name(kernel);
    }
  }
}

TEST(BfsKernel, Names) {
  EXPECT_STREQ(graph::bfs_kernel_name(BfsKernel::kTopDown), "topdown");
  EXPECT_STREQ(graph::bfs_kernel_name(BfsKernel::kHybrid), "hybrid");
  EXPECT_STREQ(graph::bfs_kernel_name(BfsKernel::kAuto), "auto");
}

// Every kernel reproduces the reference distances from every source on all
// six workload families the benches sweep — the hub-heavy shapes where
// hybrid actually switches direction (er_dense, ba) and the flat ones where
// auto must stay top-down (grid, path).
TEST(BfsKernel, MatchesReferenceOnWorkloadFamilies) {
  const std::array<const char*, 6> families = {"er",   "er_dense", "ba",
                                               "grid", "path",     "star"};
  for (const auto* family : families) {
    const Graph g = graph::make_workload(family, 250, 7);
    expect_all_kernels_match_reference(g, family);
  }
}

TEST(BfsKernel, MatchesReferenceOnAwkwardShapes) {
  // Disconnected: two components plus an isolated vertex — bottom-up scans
  // must not claim vertices outside the source's component.
  const Graph two = Graph::from_edges(9, {{0, 1}, {1, 2}, {2, 0},
                                          {4, 5}, {5, 6}, {6, 7}});
  expect_all_kernels_match_reference(two, "disconnected");
  // Single vertex and empty edge set: the frontier dies immediately.
  expect_all_kernels_match_reference(Graph::from_edges(1, {}), "single");
  expect_all_kernels_match_reference(Graph::from_edges(5, {}), "edgeless");
  // Star: one bottom-up-friendly level from the hub, n-1 from a leaf.
  expect_all_kernels_match_reference(graph::star(64), "star");
  // Path: maximal level count, frontier of 1 throughout.
  expect_all_kernels_match_reference(graph::path(65), "path");
}

TEST(BfsKernel, UnreachableAndAccessors) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto csr = Csr::from_graph(g);
  for (const auto kernel : kKernels) {
    BfsScratch scratch;
    scratch.run(csr, 0, kernel);
    EXPECT_EQ(scratch.distance(0), 0u);
    EXPECT_EQ(scratch.distance(2), 2u);
    EXPECT_EQ(scratch.distance(3), kInfDist);
    EXPECT_EQ(scratch.distance(4), kInfDist);
    EXPECT_EQ(scratch.max_reached_distance(), 2u);
    ASSERT_EQ(scratch.reached().size(), 3u);
    EXPECT_EQ(scratch.reached().front(), 0u);  // source is discovered first
    std::vector<std::uint32_t> dist(6);
    scratch.copy_distances(dist);
    EXPECT_EQ(dist, reference_dist(g, 0));
  }
}

TEST(BfsKernel, SourceOutOfRangeThrows) {
  const auto csr = Csr::from_graph(graph::path(4));
  BfsScratch scratch;
  EXPECT_THROW(scratch.run(csr, 4), std::invalid_argument);
  EXPECT_THROW(scratch.run(csr, 100), std::invalid_argument);
}

TEST(BfsKernel, CopyDistancesRejectsWrongSize) {
  const auto csr = Csr::from_graph(graph::path(4));
  BfsScratch scratch;
  scratch.run(csr, 0);
  std::vector<std::uint32_t> wrong(3);
  EXPECT_THROW(scratch.copy_distances(wrong), std::invalid_argument);
}

TEST(BfsKernel, StatsCountLevelsAndEdges) {
  const auto csr = Csr::from_graph(graph::make_workload("er_dense", 400, 3));
  BfsScratch scratch;
  BfsKernelStats topdown, hybrid;
  scratch.run(csr, 0, BfsKernel::kTopDown, &topdown);
  scratch.run(csr, 0, BfsKernel::kHybrid, &hybrid);
  EXPECT_GT(topdown.edges_inspected, 0u);
  EXPECT_EQ(topdown.bottom_up_levels, 0u);
  EXPECT_GT(topdown.top_down_levels, 0u);
  // Dense ER is the direction-optimizing sweet spot: the hybrid run must
  // actually switch, and switching must save work.
  EXPECT_GT(hybrid.bottom_up_levels, 0u);
  EXPECT_LT(hybrid.edges_inspected, topdown.edges_inspected);
}

// One scratch reused past the 16-bit epoch space: after the wrap flushes the
// mark array, stale marks from 65535 runs ago must not leak into distance().
TEST(BfsKernel, EpochWrapAfter64kReuses) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto csr = Csr::from_graph(g);
  const auto want0 = reference_dist(g, 0);
  const auto want3 = reference_dist(g, 3);
  BfsScratch scratch;
  std::vector<std::uint32_t> dist(5);
  for (std::uint32_t i = 0; i < (1u << 16) + 50; ++i) {
    const Vertex s = (i % 2 == 0) ? Vertex{0} : Vertex{3};
    scratch.run(csr, s, BfsKernel::kTopDown);
    scratch.copy_distances(dist);
    ASSERT_EQ(dist, s == 0 ? want0 : want3) << "reuse " << i;
    ASSERT_EQ(scratch.distance(s == 0 ? 4 : 0), kInfDist) << "reuse " << i;
  }
}

// Resizing between graphs of different vertex counts resets the epoch
// space; distances on the new graph must be exact immediately.
TEST(BfsKernel, ReuseAcrossDifferentGraphs) {
  const Graph small = graph::path(4);
  const Graph big = graph::make_workload("er", 200, 11);
  const auto small_csr = Csr::from_graph(small);
  const auto big_csr = Csr::from_graph(big);
  BfsScratch scratch;
  for (int round = 0; round < 3; ++round) {
    scratch.run(small_csr, 0);
    std::vector<std::uint32_t> dist(small.num_vertices());
    scratch.copy_distances(dist);
    EXPECT_EQ(dist, reference_dist(small, 0));
    scratch.run(big_csr, 5);
    std::vector<std::uint32_t> big_dist(big.num_vertices());
    scratch.copy_distances(big_dist);
    EXPECT_EQ(big_dist, reference_dist(big, 5));
  }
}

// The serving contract end-to-end: the oracle always runs kAuto, and its
// batch answers at 1, 2, and 8 query shards equal every kernel's distance
// for each request — so no kernel choice could have changed an answer.
TEST(BfsKernel, OracleBatchesMatchEveryKernelAtEveryThreadCount) {
  const Graph g = graph::make_workload("ba", 300, 5);
  const auto csr = Csr::from_graph(g);
  std::vector<apps::Query> queries;
  for (Vertex i = 0; i < 120; ++i) {
    queries.push_back({static_cast<Vertex>((i * 7) % 300),
                       static_cast<Vertex>((i * 13 + 1) % 300)});
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    const apps::SpannerDistanceOracle oracle(g, 1.0, 0.0);
    const auto answers = oracle.batch_query(queries, threads);
    ASSERT_EQ(answers.size(), queries.size());
    for (const auto kernel : kKernels) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(answers[i], kernel_dist(csr, queries[i].u, kernel)
                                  [queries[i].v])
            << "kernel " << graph::bfs_kernel_name(kernel) << ", threads "
            << threads << ", request " << i;
      }
    }
  }
}

}  // namespace
