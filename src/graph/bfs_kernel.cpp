#include "graph/bfs_kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace nas::graph {

namespace {

// Beamer-style switch thresholds.  Top-down -> bottom-up when the edges out
// of the current frontier exceed the edges still adjacent to unvisited
// vertices divided by kAlpha; bottom-up -> top-down when the frontier drops
// below n / kBeta vertices.  The classic paper values (14, 24) carry over
// unchanged: the repo's families (er, ba, grid, ...) sit squarely in the
// regimes they were tuned for, and correctness never depends on them.
constexpr std::uint64_t kAlpha = 14;
constexpr std::uint64_t kBeta = 24;

// kAuto resolves per graph, not per level: hybrid pays a bitmap-build and an
// O(n) unvisited scan per bottom-up level, which only amortizes when the
// middle levels are edge-dense.  Average directed degree >= kAutoDegree
// (er ~8, er_dense ~32, ba ~6 qualify; grid = 4, path/tree do not) is the
// whole heuristic — deterministic, O(1), no measurement involved.
constexpr std::uint64_t kAutoDegree = 5;

inline void set_bit(std::vector<std::uint64_t>& bits, Vertex v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63U);
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, Vertex v) {
  return ((bits[v >> 6] >> (v & 63U)) & 1U) != 0;
}

}  // namespace

const char* bfs_kernel_name(BfsKernel kernel) {
  switch (kernel) {
    case BfsKernel::kTopDown:
      return "topdown";
    case BfsKernel::kHybrid:
      return "hybrid";
    case BfsKernel::kAuto:
      return "auto";
  }
  return "auto";
}

void BfsScratch::resize(Vertex n) {
  if (n == n_) return;
  n_ = n;
  dist_.resize(n);
  mark_.assign(n, 0);
  epoch_ = 0;  // run() bumps to 1; all marks are stale by construction
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  front_bits_.resize(words);
  next_bits_.resize(words);
  frontier_.clear();
  frontier_.reserve(n);
}

void BfsScratch::run(const Csr& g, Vertex source, BfsKernel kernel,
                     BfsKernelStats* stats) {
  const Vertex n = g.num_vertices();
  if (source >= n) {
    throw std::invalid_argument("bfs_kernel: source out of range");
  }
  resize(n);

  // New epoch == every previous distance becomes invalid in O(1).  On wrap
  // (every 2^16 runs) the tags are flushed once so a stale mark from 65536
  // runs ago can never alias the fresh epoch.
  if (epoch_ == std::uint16_t(-1)) {
    std::fill(mark_.begin(), mark_.end(), std::uint16_t{0});
    epoch_ = 1;
  } else {
    epoch_ = static_cast<std::uint16_t>(epoch_ + 1);
  }

  BfsKernel resolved = kernel;
  if (resolved == BfsKernel::kAuto) {
    resolved = g.entries().size() >= kAutoDegree * n ? BfsKernel::kHybrid
                                                     : BfsKernel::kTopDown;
  }

  frontier_.clear();
  frontier_.push_back(source);
  dist_[source] = 0;
  mark_[source] = epoch_;

  const std::uint64_t total_directed = g.entries().size();
  std::uint64_t visited_degree = g.degree(source);  // deg sum over visited
  std::uint64_t level_degree = visited_degree;      // edges out of this level
  std::uint64_t edges_inspected = 0;
  std::uint32_t top_down_levels = 0;
  std::uint32_t bottom_up_levels = 0;
  std::uint32_t depth = 0;
  std::size_t level_begin = 0;
  bool bottom_up = false;
  bool bits_valid = false;  // front_bits_ mirrors the current level slice

  while (level_begin < frontier_.size()) {
    const std::size_t level_end = frontier_.size();

    if (resolved == BfsKernel::kHybrid) {
      if (!bottom_up) {
        // Both sums were accumulated while this frontier was generated
        // (Csr offsets are the degree prefix, so each discovered vertex
        // added its degree in O(1)) — the switch decision is O(1) here.
        const std::uint64_t unvisited_degree = total_directed - visited_degree;
        if (level_degree > unvisited_degree / kAlpha) bottom_up = true;
      } else if (level_end - level_begin < n / kBeta) {
        bottom_up = false;
      }
    }

    const std::uint32_t next_dist = depth + 1;
    std::uint64_t next_level_degree = 0;

    if (bottom_up) {
      // The frontier bitmap either survived from the previous bottom-up
      // level (the post-scan swap below leaves it in front_bits_) or is
      // rebuilt once from the level slice on a top-down -> bottom-up switch.
      if (!bits_valid) {
        std::fill(front_bits_.begin(), front_bits_.end(), std::uint64_t{0});
        for (std::size_t i = level_begin; i < level_end; ++i) {
          set_bit(front_bits_, frontier_[i]);
        }
      }
      std::fill(next_bits_.begin(), next_bits_.end(), std::uint64_t{0});
      // Ascending vertex order — the same per-level membership top-down
      // finds, so distances stay byte-identical.
      for (Vertex v = 0; v < n; ++v) {
        if (mark_[v] == epoch_) continue;
        for (Vertex u : g.neighbors(v)) {
          ++edges_inspected;
          if (test_bit(front_bits_, u)) {
            dist_[v] = next_dist;
            mark_[v] = epoch_;
            set_bit(next_bits_, v);
            frontier_.push_back(v);
            const std::uint64_t deg = g.degree(v);
            next_level_degree += deg;
            visited_degree += deg;
            break;  // first in-frontier neighbor suffices: distance only
          }
        }
      }
      std::swap(front_bits_, next_bits_);
      bits_valid = true;
      ++bottom_up_levels;
    } else {
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const Vertex u = frontier_[i];
        edges_inspected += g.degree(u);
        for (Vertex v : g.neighbors(u)) {
          if (mark_[v] != epoch_) {
            dist_[v] = next_dist;
            mark_[v] = epoch_;
            frontier_.push_back(v);
            const std::uint64_t deg = g.degree(v);
            next_level_degree += deg;
            visited_degree += deg;
          }
        }
      }
      bits_valid = false;
      ++top_down_levels;
    }

    level_begin = level_end;
    level_degree = next_level_degree;
    ++depth;
  }

  if (stats != nullptr) {
    stats->edges_inspected = edges_inspected;
    stats->top_down_levels = top_down_levels;
    stats->bottom_up_levels = bottom_up_levels;
  }
}

void BfsScratch::copy_distances(std::span<std::uint32_t> out) const {
  if (out.size() != n_) {
    throw std::invalid_argument(
        "bfs_kernel: copy_distances size must equal num_vertices");
  }
  std::fill(out.begin(), out.end(), kInfDist);
  for (Vertex v : frontier_) out[v] = dist_[v];
}

std::uint32_t BfsScratch::max_reached_distance() const {
  std::uint32_t ecc = 0;
  for (Vertex v : frontier_) ecc = std::max(ecc, dist_[v]);
  return ecc;
}

}  // namespace nas::graph
