// Flat compressed-sparse-row adjacency — the BFS hot-path representation.
//
// `Graph` is the construction-time structure: adjacency lists behind two
// vectors, built by sorting an edge list.  `Csr` is the serving-time view of
// the same adjacency: one offset array (n+1 entries) and one edge array (2m
// directed entries, each vertex's neighbors in ascending ID order — the same
// order Graph stores, so every BFS over a Csr visits vertices in exactly
// the order the adjacency-list BFS does and all distance answers stay
// byte-identical).
//
// A Csr never owns its arrays directly: it holds spans plus a shared_ptr
// keep-alive.  That makes copies O(1) — every oracle built from one Csr
// shares the same immutable arrays instead of replicating the spanner —
// and lets the v2 binary snapshot loader point the spans straight into a
// util::MappedFile, so warming an oracle from disk is zero-copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace nas::graph {

class Csr {
 public:
  /// An empty graph (n = 0, m = 0).
  Csr() = default;

  /// Copies `g`'s adjacency into freshly owned arrays.
  [[nodiscard]] static Csr from_graph(const Graph& g);

  /// Takes ownership of prebuilt arrays.  `offsets` must have n+1 entries
  /// starting at 0, ending at entries.size(), and nondecreasing; `entries`
  /// holds each vertex's neighbors in ascending order.  Trusted callers
  /// only (the snapshot loader validates before calling).
  [[nodiscard]] static Csr adopt(std::vector<std::uint64_t> offsets,
                                 std::vector<Vertex> entries);

  /// Wraps external arrays without copying; `keepalive` (e.g. the
  /// util::MappedFile behind a v2 snapshot) is retained for the lifetime of
  /// this Csr and every copy of it.
  [[nodiscard]] static Csr view(std::span<const std::uint64_t> offsets,
                                std::span<const Vertex> entries,
                                std::shared_ptr<const void> keepalive);

  [[nodiscard]] Vertex num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<Vertex>(offsets_.size() - 1);
  }
  /// Undirected edge count (half the directed entry count).
  [[nodiscard]] std::size_t num_edges() const { return entries_.size() / 2; }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return entries_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  [[nodiscard]] std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// The raw arrays (the v2 snapshot writer serializes these verbatim).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const Vertex> entries() const { return entries_; }

  /// True when both Csr objects point at the same underlying arrays (shared
  /// view rather than replicated storage).
  [[nodiscard]] bool shares_storage_with(const Csr& other) const {
    return !offsets_.empty() && offsets_.data() == other.offsets_.data() &&
           entries_.data() == other.entries_.data();
  }

  /// Materializes an adjacency-list Graph with identical neighbor order.
  [[nodiscard]] Graph to_graph() const;

  /// Human-readable one-line summary, e.g. "Graph(n=100, m=250)" — same
  /// rendering as Graph::summary() so CLI banners are representation-free.
  [[nodiscard]] std::string summary() const;

 private:
  std::span<const std::uint64_t> offsets_;  // n+1 entries; empty when n == 0
  std::span<const Vertex> entries_;         // 2m directed adjacency entries
  std::shared_ptr<const void> storage_;     // owned vectors or a file mapping
};

}  // namespace nas::graph
