#include "graph/apsp.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/bfs_kernel.hpp"
#include "util/thread_pool.hpp"

namespace nas::graph {

Apsp::Apsp(const Graph& g, Vertex max_n, unsigned threads)
    : n_(g.num_vertices()) {
  if (n_ > max_n) {
    throw std::invalid_argument("Apsp: graph too large for the exact oracle");
  }
  dist_.resize(static_cast<std::size_t>(n_) * n_);
  // Each source owns one disjoint row of the table, so sharding sources
  // across workers is race-free; each worker runs the direction-optimizing
  // kernel on one reused BfsScratch, so the whole build allocates
  // O(threads · n).  The adjacency is flattened to CSR once so all n BFS
  // passes stream two flat arrays.  Distances are level structure — kernel
  // choice and traversal order cannot change them — so the table is
  // identical for every thread count and kernel.
  const Csr csr = Csr::from_graph(g);
  util::ThreadPool::run_sharded(
      n_, threads, [&](std::size_t begin, std::size_t end) {
        BfsScratch scratch;
        for (std::size_t s = begin; s < end; ++s) {
          scratch.run(csr, static_cast<Vertex>(s), BfsKernel::kAuto);
          scratch.copy_distances(
              std::span<std::uint32_t>(dist_.data() + s * n_, n_));
        }
      });
}

std::uint32_t Apsp::max_finite_distance() const {
  std::uint32_t best = 0;
  for (std::uint32_t d : dist_) {
    if (d != kInfDist) best = std::max(best, d);
  }
  return best;
}

}  // namespace nas::graph
