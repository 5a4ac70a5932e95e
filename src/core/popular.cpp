#include "core/popular.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "congest/engine.hpp"
#include "congest/parallel.hpp"

namespace nas::core {

using graph::Graph;
using graph::kInvalidVertex;
using graph::Vertex;

namespace {

/// Rejects malformed inputs; returns the source indicator (is_source[v]).
std::vector<std::uint8_t> validate(const Graph& g,
                                   const std::vector<Vertex>& sources,
                                   std::uint64_t delta, std::uint64_t cap) {
  if (delta == 0) throw std::invalid_argument("algorithm1: delta == 0");
  if (cap == 0) throw std::invalid_argument("algorithm1: cap == 0");
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (Vertex s : sources) {
    if (s >= g.num_vertices()) {
      throw std::invalid_argument("algorithm1: source out of range");
    }
    if (is_source[s] != 0) {
      throw std::invalid_argument("algorithm1: duplicate source");
    }
    is_source[s] = 1;
  }
  return is_source;
}

/// An origin a vertex broadcasts in one layer, with the neighbor it learned
/// the origin from (kInvalidVertex for a center announcing itself).
struct Offer {
  Vertex origin = kInvalidVertex;
  Vertex via = kInvalidVertex;
};

/// The vertices that accepted origins in one layer and broadcast them in the
/// next: vertices[i] offers offers[ends[i-1] .. ends[i]), ascending by origin.
struct Frontier {
  std::vector<Vertex> vertices;
  std::vector<std::size_t> ends;
  std::vector<Offer> offers;

  [[nodiscard]] bool empty() const { return vertices.empty(); }
  [[nodiscard]] std::span<const Offer> offers_of(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {offers.data() + begin, ends[i] - begin};
  }
  void close(Vertex v) {
    vertices.push_back(v);
    ends.push_back(offers.size());
  }
  void clear() {
    vertices.clear();
    ends.clear();
    offers.clear();
  }
};

}  // namespace

const Knowledge* find_knowledge(const std::vector<Knowledge>& list,
                                Vertex origin) {
  for (const Knowledge& k : list) {
    if (k.origin == origin) return &k;
  }
  return nullptr;
}

Algorithm1Result run_algorithm1(const Graph& g,
                                const std::vector<Vertex>& sources,
                                std::uint64_t delta, std::uint64_t cap,
                                congest::Ledger* ledger) {
  const std::vector<std::uint8_t> is_source = validate(g, sources, delta, cap);
  const Vertex n = g.num_vertices();

  Algorithm1Result res;
  res.knowledge.resize(n);
  res.popular.assign(n, 0);

  // Layer 0: every source announces itself.
  Frontier frontier;
  for (Vertex s = 0; s < n; ++s) {
    if (is_source[s] == 0) continue;
    frontier.offers.push_back({.origin = s, .via = kInvalidVertex});
    frontier.close(s);
  }
  Frontier next;

  // slot[u]: 1 + u's index in the frontier, 0 if u is not in it.
  std::vector<std::size_t> slot(n, 0);
  // Epoch marks: receiver_layer[w] == layer once w is queued this layer;
  // known[o] == stamp while the receiver being scanned knows origin o.
  std::vector<std::uint64_t> receiver_layer(n, 0);
  std::vector<std::uint64_t> known(n, 0);
  std::uint64_t stamp = 0;
  std::vector<Vertex> receivers;
  std::vector<Offer> fresh;  // (origin, smallest sender) new to a receiver

  for (std::uint64_t layer = 1; layer <= delta && !frontier.empty(); ++layer) {
    const auto dist = static_cast<std::uint32_t>(layer);
    receivers.clear();
    for (std::size_t i = 0; i < frontier.vertices.size(); ++i) {
      const Vertex u = frontier.vertices[i];
      const std::span<const Offer> offers = frontier.offers_of(i);
      slot[u] = i + 1;
      // Broadcasting k origins over a cap-round layer puts k <= cap messages
      // on each incident edge-direction: the CONGEST window invariant.
      res.max_edge_layer_load =
          std::max<std::uint64_t>(res.max_edge_layer_load, offers.size());
      res.messages += offers.size() * g.degree(u);
      for (Vertex w : g.neighbors(u)) {
        if (receiver_layer[w] == layer || res.knowledge[w].size() >= cap) {
          continue;  // already queued, or list full: every arrival discarded
        }
        // w already knows every origin it delivered to u.
        const auto from_w = [w](const Offer& o) { return o.via == w; };
        if (std::ranges::all_of(offers, from_w)) continue;
        receiver_layer[w] = layer;
        receivers.push_back(w);
      }
    }
    res.receivers_scanned += receivers.size();

    // A receiver's acceptances depend only on earlier layers, so the
    // receivers may be visited in any order.
    next.clear();
    for (Vertex w : receivers) {
      std::vector<Knowledge>& list = res.knowledge[w];
      ++stamp;
      if (is_source[w] != 0) known[w] = stamp;
      for (const Knowledge& k : list) known[k.origin] = stamp;
      // Neighbors ascend, so the first sender of an origin is the smallest.
      fresh.clear();
      for (Vertex u : g.neighbors(w)) {
        if (slot[u] == 0) continue;
        for (const Offer& o : frontier.offers_of(slot[u] - 1)) {
          if (known[o.origin] == stamp) continue;
          known[o.origin] = stamp;
          fresh.push_back({.origin = o.origin, .via = u});
        }
      }
      if (fresh.empty()) continue;
      res.buffered += fresh.size();
      std::ranges::sort(fresh, {}, &Offer::origin);
      const std::size_t take = std::min(fresh.size(), cap - list.size());
      for (const Offer& o : std::span(fresh).first(take)) {
        list.push_back({.origin = o.origin, .dist = dist, .parent = o.via});
        next.offers.push_back(o);
      }
      next.close(w);
    }
    for (Vertex u : frontier.vertices) slot[u] = 0;
    std::swap(frontier, next);
  }

  for (Vertex s : sources) {
    res.popular[s] = res.knowledge[s].size() >= cap ? 1 : 0;
  }

  res.rounds_charged = 1 + delta * cap;
  if (ledger != nullptr) {
    ledger->charge_rounds(res.rounds_charged);
    ledger->charge_messages(res.messages);
    ledger->check_window_capacity(res.max_edge_layer_load, cap, "algorithm1");
  }
  return res;
}

Algorithm1Result run_algorithm1_exact(const Graph& g,
                                      const std::vector<Vertex>& sources,
                                      std::uint64_t delta, std::uint64_t cap,
                                      congest::Ledger* ledger,
                                      unsigned threads) {
  const std::vector<std::uint8_t> is_source = validate(g, sources, delta, cap);
  const Vertex n = g.num_vertices();

  Algorithm1Result res;
  res.knowledge.resize(n);
  res.popular.assign(n, 0);

  // Per-vertex state for the round-exact execution.  Everything below is
  // indexed by the executing vertex and touched by no one else, so the
  // program is safe on the multi-threaded engine at any thread count.
  // known[v]: origins v has accepted (plus itself for sources).
  std::vector<std::unordered_set<Vertex>> known(n);
  for (Vertex s : sources) known[s].insert(s);
  // buffered arrivals of the current layer: (origin, sender, dist)
  std::vector<std::vector<std::tuple<Vertex, Vertex, std::uint32_t>>> buffer(n);
  // origins accepted at the previous layer boundary, to broadcast this layer
  std::vector<std::vector<Vertex>> pending(n);

  const auto program = [&](Vertex v, std::uint64_t round,
                           std::span<const congest::Message> inbox,
                           congest::Mailbox& mbox) {
    for (const auto& m : inbox) {
      buffer[v].emplace_back(static_cast<Vertex>(m.a), m.src,
                             static_cast<std::uint32_t>(m.b) + 1);
    }
    if (round == 0) {
      if (is_source[v]) {
        for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = v, .b = 0});
      }
      return;
    }
    // Rounds 1 .. delta*cap are grouped into layers of `cap` rounds; the
    // first round of each layer processes the arrivals buffered during the
    // previous layer.
    const std::uint64_t layer_pos = (round - 1) % cap;
    if (layer_pos == 0) {
      auto& buf = buffer[v];
      std::sort(buf.begin(), buf.end(),
                [](const auto& x, const auto& y) {
                  return std::tie(std::get<0>(x), std::get<1>(x)) <
                         std::tie(std::get<0>(y), std::get<1>(y));
                });
      pending[v].clear();
      for (const auto& [o, u, d] : buf) {
        if (d > delta) continue;  // exploration is depth-bounded by δ
        if (res.knowledge[v].size() >= cap) break;
        if (!known[v].insert(o).second) continue;
        res.knowledge[v].push_back({.origin = o, .dist = d, .parent = u});
        pending[v].push_back(o);
      }
      buf.clear();
    }
    if (layer_pos < pending[v].size()) {
      const Vertex o = pending[v][layer_pos];
      const std::uint32_t d = find_knowledge(res.knowledge[v], o)->dist;
      for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = o, .b = d});
    }
  };
  // 1 announcement round + delta layers of cap rounds + 1 boundary round to
  // process the final layer's arrivals.
  congest::ParallelEngine engine(g, {.threads = threads}, ledger);
  res.rounds_charged = engine.run_rounds(delta * cap + 2, program);
  // Flush the final boundary (the engine already ran it as the last round's
  // layer_pos == 0 processing only if (delta*cap+1 - 1) % cap == 0, which it
  // is: round delta*cap+1 begins layer delta+1).
  res.messages = engine.messages_sent();

  for (Vertex s : sources) {
    res.popular[s] = res.knowledge[s].size() >= cap ? 1 : 0;
  }
  return res;
}

}  // namespace nas::core
