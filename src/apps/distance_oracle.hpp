// Approximate distance-oracle serving layer backed by a near-additive
// spanner.
//
// The application the spanner literature ([EP01], [TZ01], [RTZ05] in the
// paper's introduction) motivates: preprocess the graph once into a sparse
// structure, then serve distance queries from the structure alone.  With a
// (M, A)-spanner the answers satisfy
//
//     d_G(u,v) ≤ query(u,v) ≤ M·d_G(u,v) + A
//
// and each uncached query source costs one BFS over H (O(|H|) =
// O(β·n^{1+1/κ})) instead of O(|E|).
//
// Serving model:
//   * The oracle holds the spanner as a graph::Csr — two flat arrays the
//     BFS hot loop streams through.  Csr copies share storage, so a v2
//     binary snapshot serves straight out of a file mapping.
//   * `batch_query` answers a whole request vector at once: the distinct
//     BFS sources behind the batch are deduplicated and sharded across a
//     util::ThreadPool, each worker running the direction-optimizing
//     graph::BfsScratch kernel on its own reused scratch.  Planning,
//     answering, and cache maintenance are serial, so the answer vector
//     (request order) is byte-identical at every thread count and every
//     cache budget.  `query(u, v)` is a one-request batch.
//   * The per-source distance cache is *bounded*: OracleOptions fixes a
//     memory budget, each cached source costs 4·n bytes, and eviction is
//     deterministic LRU — least-recently-used batch first, ties broken by
//     evicting the smallest source ID.  Cache state is therefore a pure
//     function of the query history, never of thread scheduling.
//   * `save`/`load` snapshot the oracle (spanner + Params + guarantee) so
//     serving processes can load a prebuilt structure instead of re-running
//     the CONGEST construction (tools/nas_oracle drives this).  Two formats
//     exist — v1 text and v2 binary (apps/snapshot.hpp); answers are
//     byte-identical regardless of which one an oracle was loaded from.
//
// Thread-safety: const methods mutate the cache (and the lazily
// materialized adjacency-list spanner) under the hood — same contract as
// the previous implementation; callers must not invoke methods on one
// oracle concurrently.  The concurrency happens *inside* batch_query, on
// disjoint scratch buffers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "util/json.hpp"

namespace nas::apps {

/// One distance request.
struct Query {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
};

struct OracleOptions {
  /// Source-cache memory budget in bytes; each cached source costs 4·n
  /// bytes, so the cache holds floor(budget / 4n) sources.  0 disables
  /// caching entirely (every batch re-runs its BFS passes).  Answers never
  /// depend on the budget — only the BFS-pass count does.
  std::uint64_t cache_budget_bytes = 64ull << 20;
};

/// Per-batch serving diagnostics.
struct BatchStats {
  std::uint64_t queries = 0;           ///< requests in the batch
  std::uint64_t distinct_sources = 0;  ///< deduplicated BFS sources
  std::uint64_t cache_hits = 0;        ///< sources served from the cache
  std::uint64_t bfs_passes = 0;        ///< sources that needed a BFS
  std::uint64_t evictions = 0;         ///< cache entries evicted afterwards
  /// Worker shards the BFS phase actually ran on: the requested thread
  /// count resolved against the uncached-source count (so it can be lower
  /// than requested on cache-hot or highly skewed batches).
  std::uint64_t shards = 0;

  /// Folds another batch into running totals (the daemon keeps its
  /// lifetime counters this way): every counter adds, `shards` keeps the
  /// maximum.
  BatchStats& operator+=(const BatchStats& other);
};

class SpannerDistanceOracle {
 public:
  /// Builds the spanner for `g` with schedule `params` and prepares the
  /// query structure.  The input graph is NOT retained.
  SpannerDistanceOracle(const graph::Graph& g, const core::Params& params,
                        OracleOptions options = {});

  /// Wraps an already-built construction (keeps its Params and guarantee).
  explicit SpannerDistanceOracle(core::SpannerResult result,
                                 OracleOptions options = {});

  /// Wraps an arbitrary spanner with an externally proven guarantee
  /// d_H ≤ multiplicative·d_G + additive (the baseline constructions come
  /// through here; no Params is attached unless `params` is provided).
  SpannerDistanceOracle(graph::Graph spanner, double multiplicative,
                        double additive, OracleOptions options = {},
                        std::optional<core::Params> params = std::nullopt);

  /// Same, from a CSR view directly.  The Csr's storage is shared, not
  /// copied — the v2 snapshot loader hands over its file mapping.
  SpannerDistanceOracle(graph::Csr spanner, double multiplicative,
                        double additive, OracleOptions options = {},
                        std::optional<core::Params> params = std::nullopt);

  /// Approximate distance; graph::kInfDist if disconnected.  Equivalent to
  /// batch_query on the one request {u, v}, cache effects included.
  [[nodiscard]] std::uint32_t query(graph::Vertex u, graph::Vertex v) const;

  /// Answers `queries` in request order.  The distinct uncached sources are
  /// sharded across `threads` workers (0 = hardware concurrency); the
  /// returned vector is byte-identical for every thread count and cache
  /// budget.  `stats`, when non-null, receives the batch diagnostics.
  [[nodiscard]] std::vector<std::uint32_t> batch_query(
      std::span<const Query> queries, unsigned threads = 1,
      BatchStats* stats = nullptr) const;

  // --- snapshot -------------------------------------------------------------

  /// Writes the v1 text snapshot: a "NAS-ORACLE v1" header, the Params
  /// needed to rebuild the schedule (or "none"), the guarantee pair, then
  /// the spanner as a graph::io edge list.  Doubles are rendered with %.17g
  /// so the loaded guarantee is bit-identical.
  void save(std::ostream& out) const;
  /// Writes the snapshot to `path` in the requested format (v1 text by
  /// default; SnapshotFormat::kV2 writes the mmap-able binary image).
  void save_file(const std::string& path,
                 SnapshotFormat format = SnapshotFormat::kV1) const;

  /// Reads a v1 text snapshot.  Malformed input raises std::runtime_error
  /// naming the offending line, mirroring the graph::read_edge_list
  /// contract: bad magic (line 1), malformed params/guarantee lines (lines
  /// 2-3), truncated files, and edge-count mismatches in the edge-list
  /// body.  A snapshot with Params whose recomputed guarantee disagrees
  /// with the recorded pair beyond a small relative tolerance is rejected
  /// (schedule/schema drift guard; the tolerance absorbs cross-libm ulp
  /// differences, and the recorded pair is what serving uses either way).
  [[nodiscard]] static SpannerDistanceOracle load(std::istream& in,
                                                  OracleOptions options = {});
  /// Reads a snapshot from `path`, auto-detecting the format from its
  /// leading bytes: v2 binary images are mapped zero-copy (errors carry
  /// byte offsets), anything else goes through the v1 text reader.
  [[nodiscard]] static SpannerDistanceOracle load_file(
      const std::string& path, OracleOptions options = {});

  // --- introspection --------------------------------------------------------

  /// The guarantee: query(u,v) <= multiplicative()*d_G(u,v) + additive().
  [[nodiscard]] double multiplicative() const { return mult_; }
  [[nodiscard]] double additive() const { return add_; }

  /// The serving structure itself: the CSR the BFS hot loop runs on.
  [[nodiscard]] const graph::Csr& csr() const { return csr_; }
  /// Adjacency-list view of the spanner, materialized lazily on first use
  /// (identical neighbor order).  Cold-path/introspection helper — serving
  /// never touches it.
  [[nodiscard]] const graph::Graph& spanner() const;
  [[nodiscard]] graph::Vertex num_vertices() const {
    return csr_.num_vertices();
  }
  [[nodiscard]] std::size_t spanner_edges() const { return csr_.num_edges(); }
  /// One-line banner, e.g. "Graph(n=100, m=250)".
  [[nodiscard]] std::string summary() const { return csr_.summary(); }
  /// The schedule the spanner was built with, when known.
  [[nodiscard]] const std::optional<core::Params>& params() const {
    return params_;
  }

  /// Total BFS passes performed so far (cumulative, survives eviction).
  [[nodiscard]] std::uint64_t bfs_passes() const { return bfs_passes_; }
  /// Total cache evictions so far.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Sources currently cached / the bound the budget resolves to.
  [[nodiscard]] std::size_t cached_sources() const { return cache_.size(); }
  [[nodiscard]] std::uint64_t cache_capacity() const { return capacity_; }

 private:
  struct CacheEntry {
    std::vector<std::uint32_t> dist;
    std::uint64_t last_used = 0;  ///< logical clock of the last touching batch
  };

  /// Inserts `dist` for `s` and evicts down to capacity (LRU, ties towards
  /// the smallest source ID).  No-op when the budget holds zero sources.
  void cache_insert(graph::Vertex s, std::vector<std::uint32_t>&& dist) const;
  void check_vertex(graph::Vertex v) const;

  graph::Csr csr_;  ///< the spanner, in serving form (sole retained copy)
  std::optional<core::Params> params_;
  double mult_ = 1.0;
  double add_ = 0.0;
  std::uint64_t capacity_ = 0;  ///< max cached sources (from the byte budget)

  /// Keyed by source ID in a *sorted* map: the LRU victim scan iterates the
  /// whole cache, and ordered iteration keeps that scan — and therefore the
  /// eviction sequence — structurally deterministic instead of relying on a
  /// hash-layout-commutes argument (nas_lint bans unordered iteration here).
  mutable std::map<graph::Vertex, CacheEntry> cache_;
  mutable std::uint64_t clock_ = 0;
  mutable std::uint64_t bfs_passes_ = 0;
  mutable std::uint64_t evictions_ = 0;
  /// spanner() materialization (adjacency-list mirror of csr_).
  mutable std::shared_ptr<const graph::Graph> materialized_;
};

/// Order-sensitive 64-bit digest of an answer vector (SplitMix-style mixing;
/// includes the length).  The runner emits this through the unified sinks so
/// cross-thread/cross-budget byte-identity of a whole serving run collapses
/// to comparing one column.
[[nodiscard]] std::uint64_t digest_answers(std::span<const std::uint32_t> answers);

/// The serving-stats JSON schema: the structure (universe, spanner_edges,
/// guarantee_mult/add, cache_capacity) followed by the counters in `stats`
/// (queries, distinct_sources, cache_hits, bfs_passes, evictions).
/// `nas_oracle --stats-json` appends its one-shot extras (digest, timings)
/// and the nas_served STATS reply appends the server's connection counters;
/// both start from this function so the two can never drift on field
/// semantics.
[[nodiscard]] util::JsonObject oracle_stats_fields(
    const SpannerDistanceOracle& oracle, const BatchStats& stats);

}  // namespace nas::apps
