// Tests for Algorithm 1 (core/popular.hpp) against the Theorem 2.1 /
// Lemma A.1 contract, cross-validation of the fast execution against the
// exact per-round CONGEST engine, and golden digests at larger scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/popular.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace nas;
using core::Algorithm1Result;
using graph::Graph;
using graph::kInfDist;
using graph::Vertex;

/// Oracle: centers within distance delta of u (excluding u), with distances.
std::vector<std::pair<Vertex, std::uint32_t>> centers_within(
    const Graph& g, const std::vector<Vertex>& sources, Vertex u,
    std::uint32_t delta) {
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (Vertex s : sources) is_source[s] = 1;
  const auto res = graph::bfs(g, u);
  std::vector<std::pair<Vertex, std::uint32_t>> out;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != u && is_source[v] && res.dist[v] != kInfDist && res.dist[v] <= delta) {
      out.emplace_back(v, res.dist[v]);
    }
  }
  return out;
}

/// The broadcast cost, recomputed from a run's lists: layer 0 announces
/// each center to its neighbors, then a vertex broadcasts the origins it
/// accepted at distance d in one layer.  `messages` counts d < delta, as
/// run_algorithm1 charges; `final_layer` the d = delta broadcasts, whose
/// arrivals lie beyond delta.  `load` is the worst per-edge-direction count
/// in one charged layer.
struct Broadcast {
  std::uint64_t messages = 0;
  std::uint64_t final_layer = 0;
  std::uint64_t load = 0;
};
Broadcast broadcast_cost(const Graph& g, const Algorithm1Result& r,
                         const std::vector<Vertex>& sources,
                         std::uint64_t delta) {
  Broadcast b;
  for (Vertex s : sources) b.messages += g.degree(s);
  b.load = sources.empty() ? 0 : 1;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t d = 1; d <= delta; ++d) {
      const auto at_d = [d](const core::Knowledge& k) { return k.dist == d; };
      const auto k = static_cast<std::uint64_t>(
          std::ranges::count_if(r.knowledge[v], at_d));
      if (d == delta) {
        b.final_layer += k * g.degree(v);
      } else {
        b.messages += k * g.degree(v);
        b.load = std::max(b.load, k);
      }
    }
  }
  return b;
}

/// The lists and popularity flags must equal the exact engine's, and the
/// counters must equal the cost recomputed from those lists.  The engine
/// also sends the distance-delta broadcasts that run_algorithm1 does not
/// charge, and it fills neither rounds_charged nor max_edge_layer_load.
void expect_matches_exact(const Graph& g, const std::vector<Vertex>& sources,
                          std::uint64_t delta, std::uint64_t cap,
                          const Algorithm1Result& fast) {
  const auto exact = core::run_algorithm1_exact(g, sources, delta, cap);
  ASSERT_EQ(fast.knowledge.size(), exact.knowledge.size());
  ASSERT_EQ(fast.knowledge.records(), exact.knowledge.records());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(fast.knowledge[v], exact.knowledge[v]))
        << "vertex " << v;
  }
  EXPECT_EQ(fast.popular, exact.popular);
  EXPECT_EQ(fast.rounds_charged, 1 + delta * cap);
  const Broadcast b = broadcast_cost(g, exact, sources, delta);
  EXPECT_EQ(fast.messages, b.messages);
  EXPECT_EQ(exact.messages, b.messages + b.final_layer);
  EXPECT_EQ(fast.max_edge_layer_load, b.load);
}

TEST(Algorithm1, ValidatesInputs) {
  const Graph g = graph::path(4);
  EXPECT_THROW(core::run_algorithm1(g, {0}, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1(g, {0}, 1, 0), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1(g, {9}, 1, 1), std::invalid_argument);
  // A duplicated source would broadcast (and be charged) twice.
  EXPECT_THROW(core::run_algorithm1(g, {1, 2, 1}, 1, 1), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1_exact(g, {1, 2, 1}, 1, 1),
               std::invalid_argument);
}

TEST(Algorithm1, PathGraphKnowledge) {
  const Graph g = graph::path(6);
  // All vertices are centers, delta = 2, cap = 10 (no truncation).
  std::vector<Vertex> sources{0, 1, 2, 3, 4, 5};
  const auto res = core::run_algorithm1(g, sources, 2, 10);
  // Vertex 2 must know 0, 1, 3, 4 at distances 2, 1, 1, 2.
  ASSERT_EQ(res.knowledge[2].size(), 4u);
  const auto* k0 = core::find_knowledge(res.knowledge[2], 0);
  ASSERT_NE(k0, nullptr);
  EXPECT_EQ(k0->dist, 2u);
  EXPECT_EQ(k0->parent, 1u);
  const auto* k3 = core::find_knowledge(res.knowledge[2], 3);
  ASSERT_NE(k3, nullptr);
  EXPECT_EQ(k3->dist, 1u);
  EXPECT_EQ(k3->parent, 3u);
}

TEST(Algorithm1, PopularityThreshold) {
  const Graph g = graph::star(6);  // center 0 with 5 leaves
  std::vector<Vertex> sources{0, 1, 2, 3, 4, 5};
  // delta = 1, cap = 5: vertex 0 learns 5 others (popular); leaves learn 1.
  const auto res = core::run_algorithm1(g, sources, 1, 5);
  EXPECT_TRUE(res.popular[0]);
  for (Vertex leaf = 1; leaf <= 5; ++leaf) EXPECT_FALSE(res.popular[leaf]);
  // delta = 2: every leaf learns the 4 other leaves through the hub plus the
  // hub itself = 5 >= cap -> popular.
  const auto res2 = core::run_algorithm1(g, sources, 2, 5);
  for (Vertex v = 0; v < 6; ++v) EXPECT_TRUE(res2.popular[v]) << v;
}

TEST(Algorithm1, CapTruncatesDeterministicallyBySmallestOrigin) {
  const Graph g = graph::star(6);
  std::vector<Vertex> sources{1, 2, 3, 4, 5};  // leaves are centers, hub not
  const auto res = core::run_algorithm1(g, sources, 1, 3);
  // Hub hears 5 origins at layer 1 but keeps only the 3 smallest IDs.
  ASSERT_EQ(res.knowledge[0].size(), 3u);
  EXPECT_EQ(res.knowledge[0][0].origin, 1u);
  EXPECT_EQ(res.knowledge[0][1].origin, 2u);
  EXPECT_EQ(res.knowledge[0][2].origin, 3u);
}

TEST(Algorithm1, RoundsFormula) {
  const Graph g = graph::path(8);
  const auto res = core::run_algorithm1(g, {0, 7}, 3, 4);
  EXPECT_EQ(res.rounds_charged, 1 + 3u * 4u);
}

TEST(Algorithm1, EdgeLayerLoadRespectsCap) {
  const Graph g = graph::make_workload("er_dense", 150, 3);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources.push_back(v);
  const auto res = core::run_algorithm1(g, sources, 3, 7);
  EXPECT_LE(res.max_edge_layer_load, 7u);
}

struct Alg1Case {
  std::string family;
  graph::Vertex n;
  std::uint64_t delta;
  std::uint64_t cap;
  int center_stride;  // every k-th vertex is a center
};

class Algorithm1Contract : public ::testing::TestWithParam<Alg1Case> {};

TEST_P(Algorithm1Contract, MatchesTheorem21) {
  const auto& tc = GetParam();
  const Graph g = graph::make_workload(tc.family, tc.n, 29);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto res = core::run_algorithm1(g, sources, tc.delta, tc.cap);

  for (Vertex u : sources) {
    const auto oracle =
        centers_within(g, sources, u, static_cast<std::uint32_t>(tc.delta));
    // Lemma A.1: u knows at least min(cap, |Γ^δ(u) ∩ S|) centers.
    EXPECT_GE(res.knowledge[u].size(),
              std::min<std::size_t>(tc.cap, oracle.size()));
    // Popularity: >= cap other centers within delta.
    EXPECT_EQ(static_cast<bool>(res.popular[u]), oracle.size() >= tc.cap);
    // Theorem 2.1(2): an unpopular center knows ALL centers within delta,
    // at exact shortest distances.
    if (!res.popular[u]) {
      ASSERT_EQ(res.knowledge[u].size(), oracle.size());
      for (const auto& [origin, dist] : oracle) {
        const auto* k = core::find_knowledge(res.knowledge[u], origin);
        ASSERT_NE(k, nullptr) << "center " << u << " missing " << origin;
        EXPECT_EQ(k->dist, dist);
      }
    }
    // All recorded distances are exact shortest distances (even when capped).
    const auto bfs = graph::bfs(g, u);
    for (const auto& k : res.knowledge[u]) {
      EXPECT_EQ(k.dist, bfs.dist[k.origin]);
    }
  }
}

TEST_P(Algorithm1Contract, TraceBackChainsAreConsistent) {
  const auto& tc = GetParam();
  const Graph g = graph::make_workload(tc.family, tc.n, 31);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto res = core::run_algorithm1(g, sources, tc.delta, tc.cap);
  // Every knowledge entry's parent chain must walk to the origin with
  // strictly decreasing recorded distances (Theorem 2.1(2)).
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const auto& k : res.knowledge[v]) {
      Vertex x = v;
      const core::Knowledge* cur = &k;
      while (cur->dist > 1) {
        const Vertex p = cur->parent;
        ASSERT_TRUE(g.has_edge(x, p));
        const auto* next = core::find_knowledge(res.knowledge[p], k.origin);
        ASSERT_NE(next, nullptr);
        ASSERT_EQ(next->dist, cur->dist - 1);
        x = p;
        cur = next;
      }
      EXPECT_EQ(cur->parent, k.origin);
    }
  }
}

TEST_P(Algorithm1Contract, EventDrivenMatchesExactEngine) {
  const auto& tc = GetParam();
  if (tc.n > 80) GTEST_SKIP() << "engine cross-check is for small inputs";
  const Graph g = graph::make_workload(tc.family, tc.n, 37);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto fast = core::run_algorithm1(g, sources, tc.delta, tc.cap);
  expect_matches_exact(g, sources, tc.delta, tc.cap, fast);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algorithm1Contract,
    ::testing::Values(Alg1Case{"er", 60, 2, 4, 1},
                      Alg1Case{"er", 60, 3, 2, 2},
                      Alg1Case{"grid", 64, 4, 3, 1},
                      Alg1Case{"grid", 64, 2, 8, 3},
                      Alg1Case{"cycle", 40, 5, 2, 4},
                      Alg1Case{"tree", 63, 3, 3, 1},
                      Alg1Case{"hypercube", 64, 2, 6, 1},
                      Alg1Case{"dumbbell", 50, 2, 5, 1},
                      Alg1Case{"er", 300, 2, 6, 1},
                      Alg1Case{"geometric", 200, 3, 5, 2}),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return c.family + "_n" + std::to_string(c.n) + "_d" +
             std::to_string(c.delta) + "_c" + std::to_string(c.cap) + "_s" +
             std::to_string(c.center_stride);
    });

// The masked regime (one origin bit per center, W = ⌈|S|/64⌉ words per
// vertex, chosen when W <= cap) against the exact engine: multi-word masks,
// lists that fill (cap < |S|) and lists that never do, delta up to 16.
// receivers_scanned and buffered were recorded from the pull pass, which
// ran every one of these shapes before the masked regime existed.
struct MaskedCase {
  std::string family;
  Vertex n;
  Vertex stride;       // centers: every stride-th vertex ...
  std::size_t count;   // ... up to this many
  std::uint64_t delta;
  std::uint64_t cap;
  std::uint64_t receivers_scanned;
  std::uint64_t buffered;
};

class Algorithm1Masked : public ::testing::TestWithParam<MaskedCase> {};

TEST_P(Algorithm1Masked, MatchesExactEngineFieldByField) {
  const auto& tc = GetParam();
  const Graph g = graph::make_workload(tc.family, tc.n, 53);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices() && sources.size() < tc.count;
       v += tc.stride) {
    sources.push_back(v);
  }
  ASSERT_EQ(sources.size(), tc.count);
  const auto fast = core::run_algorithm1(g, sources, tc.delta, tc.cap);
  EXPECT_GT(fast.origin_words, 0u) << "the masked regime did not run";
  EXPECT_EQ(fast.receivers_scanned, tc.receivers_scanned);
  EXPECT_EQ(fast.buffered, tc.buffered);
  expect_matches_exact(g, sources, tc.delta, tc.cap, fast);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Algorithm1Masked,
    ::testing::Values(MaskedCase{"er", 260, 4, 65, 16, 66, 1306, 16835},
                      MaskedCase{"er", 260, 2, 130, 4, 5, 415, 4441},
                      MaskedCase{"er", 200, 5, 40, 16, 10, 444, 3736},
                      MaskedCase{"ba", 300, 2, 130, 16, 3, 464, 2249},
                      MaskedCase{"ba", 300, 4, 65, 8, 66, 1522, 19435},
                      MaskedCase{"grid", 256, 3, 65, 16, 66, 3809, 14426},
                      MaskedCase{"grid", 256, 1, 130, 16, 9, 720, 2812},
                      MaskedCase{"geometric", 300, 4, 65, 16, 20, 1276, 7128},
                      MaskedCase{"geometric", 300, 2, 130, 6, 131, 1798,
                                 23375}),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return c.family + "_s" + std::to_string(c.count) + "_d" +
             std::to_string(c.delta) + "_c" + std::to_string(c.cap);
    });

// Phase 0's shape (every vertex a center, small cap): W = ⌈300/64⌉ = 5
// exceeds cap = 4, so the pull pass runs and reads no mask words.
TEST(Algorithm1, PhaseZeroShapeRunsThePullPass) {
  const Graph g = graph::make_workload("er", 300, 53);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources.push_back(v);
  const auto fast = core::run_algorithm1(g, sources, 3, 4);
  EXPECT_EQ(fast.origin_words, 0u);
  EXPECT_GT(fast.receivers_scanned, 0u);
  expect_matches_exact(g, sources, 3, 4, fast);
}

/// Folds every list's (origin, dist, parent), the popularity flags, and the
/// message/load counters into one word.
std::uint64_t result_digest(const Algorithm1Result& r) {
  std::uint64_t h = util::mix64(r.knowledge.size());
  const auto fold = [&h](std::uint64_t x) { h = util::mix64(h ^ x); };
  for (const auto& list : r.knowledge) {
    fold(list.size());
    for (const auto& k : list) {
      fold(k.origin);
      fold(k.dist);
      fold(k.parent);
    }
  }
  for (const auto p : r.popular) fold(p);
  fold(r.messages);
  fold(r.max_edge_layer_load);
  return h;
}

std::vector<Vertex> every_kth(const Graph& g, Vertex k) {
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += k) sources.push_back(v);
  return sources;
}

// Byte-identity at scale: digests recorded from a sender-side implementation
// that materialized and sorted every (receiver, origin, sender) arrival.  The
// dense shapes saturate every list and discard arrivals; the sparse one
// mirrors a phase-1 run (40 centers, cap above the center count, δ = 16).
TEST(Algorithm1, GoldenDigestsDenseSaturated) {
  const Graph g = graph::make_workload("er_dense", 2000, 43);
  const auto sources = every_kth(g, 1);
  const auto d1 = core::run_algorithm1(g, sources, 1, 13);
  EXPECT_EQ(d1.origin_words, 0u);  // W = 32 > cap: the pull pass
  EXPECT_EQ(d1.receivers_scanned, 2000u);
  EXPECT_EQ(d1.messages, 64022u);
  EXPECT_EQ(result_digest(d1), 0x31b58c469adf499eULL);
  const auto d2 = core::run_algorithm1(g, sources, 2, 13);
  EXPECT_EQ(d2.messages, 896308u);
  EXPECT_EQ(d2.max_edge_layer_load, 13u);
  EXPECT_EQ(d2.origin_words, 0u);
  EXPECT_EQ(d2.receivers_scanned, 2000u);
  EXPECT_EQ(result_digest(d2), 0x664965c4522ab6feULL);
}

TEST(Algorithm1, GoldenDigestSparseCenters) {
  const Graph g = graph::make_workload("er_dense", 4000, 43);
  const auto res = core::run_algorithm1(g, every_kth(g, 100), 16, 49);
  EXPECT_EQ(res.messages, 5117200u);
  EXPECT_EQ(res.max_edge_layer_load, 39u);
  EXPECT_EQ(result_digest(res), 0x73141431069c23adULL);
  // W = 1 <= cap: the masked regime, with the pull pass's visit count.
  EXPECT_GT(res.origin_words, 0u);
  EXPECT_EQ(res.receivers_scanned, 15965u);
  // Only the origins new to a receiver are held for sorting: one per
  // acceptance here, since 40 centers never fill a cap-49 list.
  std::uint64_t accepted = 0;
  for (const auto& list : res.knowledge) accepted += list.size();
  EXPECT_EQ(res.buffered, accepted);
}

// Each layer's work follows the frontier, not n: on a long cycle with one
// source the wave has two fronts, so exactly two receivers per layer are
// visited (the vertices behind each front already know the origin).
TEST(Algorithm1, ReceiverScanIsFrontierLocal) {
  const Graph g = graph::cycle(20000);
  const std::uint64_t delta = 5000;
  const auto res = core::run_algorithm1(g, {0}, delta, 2);
  EXPECT_EQ(res.receivers_scanned, 2 * delta);
  EXPECT_EQ(res.buffered, 2 * delta);
  for (Vertex v = 1; v <= delta; ++v) {
    ASSERT_EQ(res.knowledge[v].size(), 1u) << v;
    ASSERT_EQ(res.knowledge[g.num_vertices() - v].size(), 1u) << v;
    EXPECT_EQ(res.knowledge[v][0].dist, v);
  }
  EXPECT_TRUE(res.knowledge[delta + 1].empty());
}

TEST(Algorithm1, DeterministicAcrossRuns) {
  const Graph g = graph::make_workload("er", 200, 41);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) sources.push_back(v);
  const auto a = core::run_algorithm1(g, sources, 3, 5);
  const auto b = core::run_algorithm1(g, sources, 3, 5);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.knowledge[v].size(), b.knowledge[v].size());
    for (std::size_t i = 0; i < a.knowledge[v].size(); ++i) {
      EXPECT_EQ(a.knowledge[v][i].origin, b.knowledge[v][i].origin);
      EXPECT_EQ(a.knowledge[v][i].parent, b.knowledge[v][i].parent);
    }
  }
}

}  // namespace
