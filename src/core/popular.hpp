// Algorithm 1 (paper, Appendix A): detecting popular clusters.
//
// A modified multi-source BFS from every cluster center r_C ∈ S_i, running
// for δ_i distance-layers of deg_i rounds each.  Every vertex maintains a
// list of the first `cap = deg_i` centers it learns about, together with the
// exact distance and the neighbor that delivered the message (so shortest
// paths can be traced back later).  Per layer, a vertex forwards the (at
// most cap) newly accepted origins to all its neighbors; origins that do not
// fit in the list are discarded and never forwarded — this is the paper's
// "arbitrarily choose deg_i" rule made deterministic by preferring smaller
// origin IDs.
//
// Contract (Theorem 2.1 / Lemma A.1), verified by the test suite:
//   1. After the run each vertex u knows at least
//      min(cap, |Γ^(δ)(u) ∩ S|) centers, at exact shortest distances.
//   2. A center is *popular* iff it learned about ≥ cap other centers;
//      an unpopular center knows ALL centers within δ and, for each, every
//      vertex on a shortest path towards it knows its own distance and
//      parent (trace-back property).
//   3. Round cost: 1 + δ·cap (layer 0 is a single round; each of the δ
//      forwarding layers takes cap rounds).  Each edge-direction carries at
//      most `cap` messages per layer — the CONGEST capacity invariant for
//      the cap-round window, checked against the ledger.
//
// Two implementations:
//   * run_algorithm1       — a layered receiver-side pass, fast; charges
//                            rounds per the schedule above and messages
//                            arithmetically (origins × degree per
//                            broadcasting vertex).  Each layer visits only
//                            the non-full neighbors of the previous layer's
//                            accepting vertices, skipping an edge u→w when
//                            every origin u offers came from w.  A visited
//                            receiver collects the origins its frontier
//                            neighbors offer that it does not know, in
//                            ascending neighbor order (so the first sender
//                            of an origin, its parent, is the smallest), and
//                            accepts them in ascending ID until its list is
//                            full.  Acceptance order is therefore (layer,
//                            origin) and the parent is the smallest sender —
//                            exactly the CONGEST execution's choices.  It
//                            runs in one of two regimes, chosen internally:
//      - masked: each vertex holds W = ⌈|S|/64⌉ words of origin bits in
//        center-ID order (multi-source BFS with one bit per source, as in
//        MS-BFS, Then et al., PVLDB 2014).  A receiver ORs its frontier
//        neighbors' "accepted last layer" masks, clears the bits it knows,
//        and keeps the lowest cap − size bits (the fill rule); each bit's
//        parent is the first neighbor of the ascending scan offering it.
//        The scan stops once the receiver has seen every center.
//      - pull: each receiver stamps the origins it knows in an epoch array
//        and scans its frontier neighbors' offer lists entry by entry.
//     The rule: masked iff W ≤ cap, i.e. a neighbor's mask is never longer
//     than the longest offer list (cap entries) it replaces.  Measured on
//     construction phase 1 of er_dense n=16,000, practical(0.25, 3, 0.4)
//     (|S| = 40, W = 1, cap = 49, δ = 16): masked runs in ≈32 ms against
//     ≈115 ms for the pull pass, reading 0.54M mask words where the pull
//     pass charges 20.5M messages.  Phase 0 (|S| = n, W = 250 > cap = 26)
//     stays on the pull pass, where one mask would be ten times longer than
//     any offer list.
//   * run_algorithm1_exact — executes on the exact per-round CONGEST engine
//                            (congest::ParallelEngine); used by the tests
//                            and build_spanner's cross-check to validate
//                            the fast result bit-for-bit.
//
// Both return the lists in one KnowledgeStore: a flat record array plus
// per-vertex offsets, sized by the records actually accepted (never n × cap).
// The fast pass stages each layer's acceptances tagged with their vertex, in
// fixed-size chunks, and groups them with one counting-sort pass at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/ledger.hpp"
#include "graph/graph.hpp"

namespace nas::core {

/// One learned (origin, distance, parent) record at a vertex.
struct Knowledge {
  graph::Vertex origin = graph::kInvalidVertex;
  std::uint32_t dist = 0;
  graph::Vertex parent = graph::kInvalidVertex;  // neighbor towards origin

  friend bool operator==(const Knowledge&, const Knowledge&) = default;
};

/// Every vertex's knowledge list in one array: vertex v's records are
/// records[offsets[v] .. offsets[v + 1]), in acceptance order.  store[v] is a
/// span (size(), iteration, indexing); iterating the store yields the lists
/// in vertex order.
class KnowledgeStore {
 public:
  KnowledgeStore() = default;
  /// Adopts lists already grouped by vertex: offsets.size() - 1 vertices,
  /// offsets ascending from 0 to records.size() (else
  /// std::invalid_argument).
  KnowledgeStore(std::vector<std::size_t> offsets,
                 std::vector<Knowledge> records);

  /// The number of vertices.
  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  /// The number of records over all vertices.
  [[nodiscard]] std::size_t records() const { return records_.size(); }
  [[nodiscard]] std::span<const Knowledge> operator[](graph::Vertex v) const {
    return {records_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  class Iterator {
   public:
    Iterator(const KnowledgeStore* store, graph::Vertex v)
        : store_(store), v_(v) {}
    std::span<const Knowledge> operator*() const { return (*store_)[v_]; }
    Iterator& operator++() {
      ++v_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const KnowledgeStore* store_;
    graph::Vertex v_;
  };
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const {
    return {this, static_cast<graph::Vertex>(size())};
  }

 private:
  std::vector<std::size_t> offsets_{0};
  std::vector<Knowledge> records_;
};

struct Algorithm1Result {
  /// knowledge[v]: accepted records, in acceptance order (layer, then origin
  /// ID).  Size is at most `cap`.  A center never records itself.
  KnowledgeStore knowledge;
  /// popular[v] is meaningful only for v ∈ sources: true iff v accepted
  /// `cap` records (i.e. learned ≥ cap other centers within δ).
  std::vector<std::uint8_t> popular;
  std::uint64_t rounds_charged = 0;
  std::uint64_t messages = 0;
  /// Worst per-edge-direction message count within one layer (must be ≤ cap).
  std::uint64_t max_edge_layer_load = 0;
  /// Work counters of run_algorithm1 (0 from run_algorithm1_exact), all
  /// deterministic.  buffered: per (layer, receiver), the distinct origins
  /// the receiver did not know yet.  receivers_scanned: (layer, receiver)
  /// visits.  Both are the same in either regime.  origin_words: origin-mask
  /// words the masked regime read from receivers' frontier neighbors, W per
  /// neighbor read (skipped: a neighbor whose every offer came from the
  /// receiver, and every neighbor after the receiver has seen all centers);
  /// 0 when the pull pass ran.
  std::uint64_t buffered = 0;
  std::uint64_t receivers_scanned = 0;
  std::uint64_t origin_words = 0;
};

/// Fast execution.  `sources` are the cluster centers S_i (distinct, each
/// < n, else std::invalid_argument); `delta` and `cap` are δ_i and deg_i.
/// Rounds are charged to `ledger` if non-null.
[[nodiscard]] Algorithm1Result run_algorithm1(
    const graph::Graph& g, const std::vector<graph::Vertex>& sources,
    std::uint64_t delta, std::uint64_t cap,
    congest::Ledger* ledger = nullptr);

/// Exact engine-backed reference (δ·cap+2 real simulated rounds); used by
/// the tests and by build_spanner's cross-check mode.  Runs on
/// congest::ParallelEngine with `threads` workers (0 = all cores); the
/// result is bit-identical at every thread count.
[[nodiscard]] Algorithm1Result run_algorithm1_exact(
    const graph::Graph& g, const std::vector<graph::Vertex>& sources,
    std::uint64_t delta, std::uint64_t cap,
    congest::Ledger* ledger = nullptr, unsigned threads = 1);

/// Convenience: looks up `origin` in knowledge[v]; returns nullptr if absent.
[[nodiscard]] const Knowledge* find_knowledge(std::span<const Knowledge> list,
                                              graph::Vertex origin);

}  // namespace nas::core
