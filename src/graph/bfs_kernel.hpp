// Direction-optimizing BFS kernel — the serving/verification hot loop.
//
// Every answer the system produces (oracle queries, stretch verification,
// APSP rows) bottoms out in a single-source BFS over a graph::Csr.  This
// layer replaces the plain top-down traversal with a Beamer-style hybrid
// kernel that switches between two strategies per level:
//
//   * top-down:  expand the frontier vertex list, inspecting every edge out
//                of the frontier — cheap while the frontier is small;
//   * bottom-up: scan the *unvisited* vertices and stop at the first
//                neighbor inside the frontier bitmap — cheap on the middle
//                levels of low-diameter graphs (ba, er), where the frontier
//                touches most of the edge set and top-down would inspect
//                nearly all 2m directed entries just to rediscover it.
//
// Switch heuristics (the standard frontier-edge-count rules): go bottom-up
// when the edges out of the next frontier exceed the unexplored remainder
// divided by kAlpha; return top-down when the frontier shrinks below
// n / kBeta.  Both degree sums are accumulated while the frontier is built —
// the Csr offset array is the degree prefix, so each discovered vertex adds
// its degree in O(1) and the per-level switch decision is O(1).
//
// Determinism: the kernel exposes *distances only*.  BFS level membership is
// a property of the graph, not of the traversal order, so every kernel —
// and every interleaving of levels — produces byte-identical distance
// arrays.  tests/test_bfs_kernels.cpp and the identity gate in
// bench/bfs_kernels enforce this rather than trusting the argument.  Serving
// always runs kAuto; the two fixed kernels remain so the bench can compare
// their edges-inspected counts against kAuto's per-graph choice.
//
// BfsScratch is the reusable per-worker state: the distance array is
// validity-tagged with a per-run epoch, so starting a new BFS costs
// O(active) — touched entries of the previous run — instead of an O(n)
// std::fill.  One scratch per ThreadPool worker makes a sharded loop over
// sources allocation-free after the first source.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::graph {

/// Traversal strategy for the CSR BFS hot loop.
enum class BfsKernel {
  kTopDown,  ///< classic level-synchronous frontier expansion
  kHybrid,   ///< per-level top-down <-> bottom-up switching
  kAuto,     ///< hybrid on dense-enough graphs, top-down otherwise
};

/// "topdown" | "hybrid" | "auto", for bench rows and test messages.
[[nodiscard]] const char* bfs_kernel_name(BfsKernel kernel);

/// Per-run traversal counters.  `edges_inspected` is the kernel's work
/// measure — every neighbor peek counts once, in either direction — and is
/// what BENCH_bfs.json tracks (wall-clock is meaningless on shared runners;
/// edge inspections are deterministic).
struct BfsKernelStats {
  std::uint64_t edges_inspected = 0;
  std::uint32_t top_down_levels = 0;
  std::uint32_t bottom_up_levels = 0;
};

/// Reusable BFS state: distance array + epoch marks, the two bitmap
/// frontiers the bottom-up steps test against, and the frontier vertex
/// vector (which doubles as the visit-order record of every vertex reached
/// by the current run).  Create one per worker and reuse it across sources;
/// after the first run on a given vertex count, run() allocates nothing.
class BfsScratch {
 public:
  /// Runs a single-source BFS over `g` with the requested kernel.
  /// Distances are readable through distance()/copy_distances() until the
  /// next run() on this scratch.  Throws std::invalid_argument when
  /// `source` is out of range.
  void run(const Csr& g, Vertex source, BfsKernel kernel = BfsKernel::kAuto,
           BfsKernelStats* stats = nullptr);

  /// d(source, v) of the last run; kInfDist when unreachable.
  [[nodiscard]] std::uint32_t distance(Vertex v) const {
    return mark_[v] == epoch_ ? dist_[v] : kInfDist;
  }

  /// Materializes the full distance array of the last run into `out`
  /// (size must be the graph's vertex count; kInfDist where unreachable).
  void copy_distances(std::span<std::uint32_t> out) const;

  /// Every vertex reached by the last run, in discovery order (the source
  /// first).  Iterating this instead of [0, n) keeps per-component loops —
  /// eccentricity, component sweeps — O(active).
  [[nodiscard]] std::span<const Vertex> reached() const { return frontier_; }

  /// Max finite distance of the last run (the source's eccentricity within
  /// its component).  O(reached).
  [[nodiscard]] std::uint32_t max_reached_distance() const;

  /// Vertex count the scratch is currently sized for.
  [[nodiscard]] Vertex num_vertices() const { return n_; }

 private:
  void resize(Vertex n);

  Vertex n_ = 0;
  std::vector<std::uint32_t> dist_;   // valid iff mark_[v] == epoch_
  std::vector<std::uint16_t> mark_;   // per-vertex epoch tag
  std::uint16_t epoch_ = 0;           // wraps; resize()/run() handle the wrap
  std::vector<std::uint64_t> front_bits_;  // current-level bitmap (bottom-up)
  std::vector<std::uint64_t> next_bits_;   // next-level bitmap (bottom-up)
  std::vector<Vertex> frontier_;      // reached vertices in discovery order
};

}  // namespace nas::graph
