// Thread-safe build-once cache of workload graphs.
//
// Matrix expansion produces many scenarios over the same input graph (every
// eps/kappa/rho/algo combination at one (family, n, seed)); the cache makes
// the graph build happen exactly once per distinct source, even when
// scenarios run concurrently on Runner workers.  Entries are immutable
// shared_ptr<const Graph>, so concurrent scenarios can read one graph while
// later specs are still building theirs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/graph.hpp"

namespace nas::run {

/// Builds the graph a scenario `family` names: "file:<path>" reads that edge
/// list (`n` and `seed` are then ignored), anything else is a
/// graph::make_workload family.
[[nodiscard]] graph::Graph make_graph(const std::string& family,
                                      graph::Vertex n, std::uint64_t seed);

class GraphCache {
 public:
  /// The cache key: "file:<path>" graphs are keyed by path alone (n/seed do
  /// not affect what read_edge_list_file returns), generator families by all
  /// three build inputs.
  [[nodiscard]] static std::string key(const std::string& family,
                                       graph::Vertex n, std::uint64_t seed);

  /// Returns the graph for (family, n, seed), building it on first request:
  /// `family` is a graph::make_workload family or "file:<path>".  Safe to
  /// call from multiple threads; exactly one caller builds, the rest block
  /// and share the result.  A failed build rethrows its error to every
  /// caller of that key.  `hit` (optional) reports whether the entry already
  /// existed.
  [[nodiscard]] std::shared_ptr<const graph::Graph> get(
      const std::string& family, graph::Vertex n, std::uint64_t seed,
      bool* hit = nullptr);

  struct Stats {
    std::uint64_t hits = 0;    ///< get() calls that found an existing entry
    std::uint64_t misses = 0;  ///< get() calls that created the entry
  };
  [[nodiscard]] Stats stats() const;

  /// Distinct graphs currently held.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const graph::Graph> graph;
    std::exception_ptr error;
  };

  mutable std::mutex m_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace nas::run
