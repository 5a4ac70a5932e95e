#include "core/popular.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_set>
#include <utility>

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

/// Mask words per vertex for `centers` origins, one bit each.
std::size_t mask_words(std::size_t centers) { return (centers + 63) / 64; }

/// The origin index of the lowest set bit of mask word t.
std::size_t lowest_origin(std::size_t t, std::uint64_t bits) {
  return t * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

/// The vertices that accepted origins in one layer and broadcast them in the
/// next.  vertices[i] offers ends[i] - ends[i-1] origins, each learned from
/// neighbor sole[i] (kInvalidVertex: from several neighbors, or a center
/// announcing itself).  The pull regime lists the origins in
/// offers[ends[i-1] .. ends[i]), ascending; the masked regime holds them as
/// the `words`-word mask masks[i * words ..].
struct Frontier {
  std::vector<Vertex> vertices;
  std::vector<Vertex> sole;
  std::vector<std::size_t> ends;
  std::vector<Vertex> offers;
  std::vector<std::uint64_t> masks;
  std::size_t words = 0;

  [[nodiscard]] bool empty() const { return vertices.empty(); }
  [[nodiscard]] std::size_t begin_of(std::size_t i) const {
    return i == 0 ? 0 : ends[i - 1];
  }
  [[nodiscard]] std::uint64_t offered(std::size_t i) const {
    return ends[i] - begin_of(i);
  }
  [[nodiscard]] std::span<const Vertex> offers_of(std::size_t i) const {
    return {offers.data() + begin_of(i), ends[i] - begin_of(i)};
  }
  [[nodiscard]] std::span<const std::uint64_t> mask_of(std::size_t i) const {
    return {masks.data() + i * words, words};
  }
  void close(Vertex v, Vertex sender, std::size_t count) {
    vertices.push_back(v);
    sole.push_back(sender);
    ends.push_back((ends.empty() ? 0 : ends.back()) + count);
  }
  void clear() {
    vertices.clear();
    sole.clear();
    ends.clear();
    offers.clear();
    masks.clear();
  }
};

/// The neighbor every record of `run` came from, or kInvalidVertex.
Vertex sole_sender(std::span<const Knowledge> run) {
  const Vertex p = run.front().parent;
  const auto from_p = [p](const Knowledge& k) { return k.parent == p; };
  return std::ranges::all_of(run, from_p) ? p : kInvalidVertex;
}

/// An accepted record until the run ends: the vertex that accepted it, and
/// its Knowledge without dist (the layer it was accepted in gives that).
struct Staged {
  Vertex owner = kInvalidVertex;
  Vertex origin = kInvalidVertex;
  Vertex parent = kInvalidVertex;
};

/// The staged records in acceptance order, in fixed-size chunks: appending
/// never copies, so resident memory tracks the records accepted.
class StagingLog {
 public:
  void push(const Staged& s) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    chunks_.back().push_back(s);
    ++size_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Staged& operator[](std::size_t r) const {
    return chunks_[r / kChunk][r % kChunk];
  }
  /// Calls visit(record) in acceptance order, freeing each chunk once read.
  template <typename Visit>
  void drain(Visit&& visit) {
    for (std::vector<Staged>& chunk : chunks_) {
      for (const Staged& s : chunk) visit(s);
      std::vector<Staged>().swap(chunk);
    }
    chunks_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 15;
  std::vector<std::vector<Staged>> chunks_;
  std::size_t size_ = 0;
};

/// run_algorithm1's layered pass, in either regime (popular.hpp).  The
/// acceptances are staged in acceptance order; take_store() groups them per
/// vertex with one counting-sort pass.
class LayeredPass {
 public:
  LayeredPass(const Graph& g, std::uint64_t cap, Algorithm1Result& res)
      : g_(g),
        cap_(cap),
        res_(res),
        count_(g.num_vertices(), 0),
        mark_(g.num_vertices(), 0),
        slot_(g.num_vertices(), 0) {}

  void run_pull(const std::vector<std::uint8_t>& is_source,
                std::uint64_t delta);
  void run_masked(const std::vector<Vertex>& sources, std::uint64_t delta);

  [[nodiscard]] bool full(Vertex v) const { return (mark_[v] & kFull) != 0; }
  /// The accepted records grouped per vertex; call once, after the run.
  [[nodiscard]] KnowledgeStore take_store();

 private:
  /// Charges the frontier's broadcast and queues this layer's receivers:
  /// the frontier's neighbors that may learn something.
  void queue_receivers();
  /// Stages the records w accepted this layer (ascending by origin) and
  /// closes w's entry in the next frontier; the caller adds the offers.
  void accept_run(Vertex w, std::span<const Knowledge> run) {
    for (const Knowledge& k : run) {
      log_.push({.owner = w, .origin = k.origin, .parent = k.parent});
    }
    count_[w] += run.size();
    if (count_[w] >= cap_) mark_[w] |= kFull;
    next_.close(w, sole_sender(run), run.size());
  }
  void end_layer() {
    for (Vertex u : frontier_.vertices) mark_[u] &= ~kInFrontier;
    std::swap(frontier_, next_);
    next_.clear();
    layer_end_.push_back(log_.size());
  }

  const Graph& g_;
  const std::uint64_t cap_;
  Algorithm1Result& res_;
  StagingLog log_;
  // layer_end_[d - 1]: how many staged records have dist <= d.
  std::vector<std::size_t> layer_end_;
  std::vector<std::uint64_t> count_;  // records accepted so far, per vertex
  // Per-vertex flags in one byte, so the per-edge tests stay in L1 cache.
  static constexpr std::uint8_t kInFrontier = 1;  // slot_ holds its index
  static constexpr std::uint8_t kQueued = 2;      // a receiver this layer
  static constexpr std::uint8_t kFull = 4;        // cap records accepted
  std::vector<std::uint8_t> mark_;
  std::vector<Vertex> slot_;
  std::vector<Vertex> receivers_;
  Frontier frontier_;
  Frontier next_;
};

KnowledgeStore LayeredPass::take_store() {
  std::vector<std::size_t> offsets(count_.size() + 1, 0);
  std::partial_sum(count_.begin(), count_.end(), offsets.begin() + 1);
  std::vector<Knowledge> records(log_.size());
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  std::size_t r = 0;
  std::uint32_t dist = 1;
  log_.drain([&](const Staged& s) {
    while (r == layer_end_[dist - 1]) ++dist;
    records[fill[s.owner]++] = {
        .origin = s.origin, .dist = dist, .parent = s.parent};
    ++r;
  });
  return {std::move(offsets), std::move(records)};
}

void LayeredPass::queue_receivers() {
  receivers_.clear();
  for (std::size_t i = 0; i < frontier_.vertices.size(); ++i) {
    const Vertex u = frontier_.vertices[i];
    const std::uint64_t offered = frontier_.offered(i);
    mark_[u] |= kInFrontier;
    slot_[u] = static_cast<Vertex>(i);
    // Broadcasting k origins over a cap-round layer puts k <= cap messages
    // on each incident edge-direction: the CONGEST window invariant.
    res_.max_edge_layer_load = std::max(res_.max_edge_layer_load, offered);
    res_.messages += offered * g_.degree(u);
    for (Vertex w : g_.neighbors(u)) {
      // Skip w if already queued, if its list is full (every arrival is
      // discarded), or if it delivered every origin u offers, so knows them.
      if ((mark_[w] & (kQueued | kFull)) != 0 || frontier_.sole[i] == w) {
        continue;
      }
      mark_[w] |= kQueued;
      receivers_.push_back(w);
    }
  }
  for (Vertex w : receivers_) mark_[w] &= ~kQueued;
  res_.receivers_scanned += receivers_.size();
}

void LayeredPass::run_pull(const std::vector<std::uint8_t>& is_source,
                           std::uint64_t delta) {
  const Vertex n = g_.num_vertices();
  // Layer 0: every source announces itself.
  for (Vertex s = 0; s < n; ++s) {
    if (is_source[s] == 0) continue;
    frontier_.offers.push_back(s);
    frontier_.close(s, kInvalidVertex, 1);
  }
  // known[o] == stamp while the receiver being scanned knows origin o.
  std::vector<std::uint64_t> known(n, 0);
  std::uint64_t stamp = 0;
  // last[v]: v's latest staged record; before[r]: the record staged before
  // r by the same vertex.  The chain lists what a receiver knows.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last(n, kNone);
  std::vector<std::size_t> before;
  // (origin, smallest sender) new to a receiver
  std::vector<Knowledge> fresh;

  for (std::uint64_t layer = 1; layer <= delta && !frontier_.empty(); ++layer) {
    const auto dist = static_cast<std::uint32_t>(layer);
    queue_receivers();
    // A receiver's acceptances depend only on earlier layers, so the
    // receivers may be visited in any order.
    for (Vertex w : receivers_) {
      ++stamp;
      if (is_source[w] != 0) known[w] = stamp;
      for (std::size_t r = last[w]; r != kNone; r = before[r]) {
        known[log_[r].origin] = stamp;
      }
      // Neighbors ascend, so the first sender of an origin is the smallest.
      fresh.clear();
      for (Vertex u : g_.neighbors(w)) {
        if ((mark_[u] & kInFrontier) == 0) continue;
        for (Vertex o : frontier_.offers_of(slot_[u])) {
          if (known[o] == stamp) continue;
          known[o] = stamp;
          fresh.push_back({.origin = o, .dist = dist, .parent = u});
        }
      }
      if (fresh.empty()) continue;
      res_.buffered += fresh.size();
      std::ranges::sort(fresh, {}, &Knowledge::origin);
      const std::span<const Knowledge> run =
          std::span(fresh).first(std::min(fresh.size(), cap_ - count_[w]));
      for (const Knowledge& k : run) {
        before.push_back(last[w]);
        last[w] = before.size() - 1;
        next_.offers.push_back(k.origin);
      }
      accept_run(w, run);
    }
    end_layer();
  }
}

void LayeredPass::run_masked(const std::vector<Vertex>& sources,
                             std::uint64_t delta) {
  const Vertex n = g_.num_vertices();
  // Bit j stands for center[j]; centers ascend, so bits ascend by origin.
  std::vector<Vertex> center = sources;
  std::ranges::sort(center);
  const std::size_t words = mask_words(center.size());
  frontier_.words = words;
  next_.words = words;
  // known[v * words ..]: the origins v knows (itself, if a center).
  std::vector<std::uint64_t> known(std::size_t{n} * words, 0);
  // Layer 0: every center announces itself, in ascending order.
  frontier_.masks.assign(center.size() * words, 0);
  for (std::size_t j = 0; j < center.size(); ++j) {
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    known[std::size_t{center[j]} * words + j / 64] |= bit;
    frontier_.masks[j * words + j / 64] = bit;
    frontier_.close(center[j], kInvalidVertex, 1);
  }
  std::vector<std::uint64_t> seen(words);
  std::vector<std::uint64_t> kept(words);
  std::vector<Knowledge> run;  // the records a receiver accepts
  // parent[j]: the first (smallest) neighbor that offered center[j] to the
  // receiver being scanned; read only for bits new to it.
  std::vector<Vertex> parent(center.size(), kInvalidVertex);

  for (std::uint64_t layer = 1; layer <= delta && !frontier_.empty(); ++layer) {
    const auto dist = static_cast<std::uint32_t>(layer);
    queue_receivers();
    for (Vertex w : receivers_) {
      const std::span<std::uint64_t> known_w(
          known.data() + std::size_t{w} * words, words);
      std::ranges::copy(known_w, seen.begin());
      // Once every center is seen, later neighbors can add nothing.
      std::size_t unseen = center.size();
      for (const std::uint64_t word : known_w) {
        unseen -= static_cast<std::size_t>(std::popcount(word));
      }
      for (Vertex u : g_.neighbors(w)) {
        if (unseen == 0) break;
        if ((mark_[u] & kInFrontier) == 0) continue;
        const std::size_t i = slot_[u];
        if (frontier_.sole[i] == w) continue;  // w delivered all of them
        res_.origin_words += words;
        const std::span<const std::uint64_t> offered = frontier_.mask_of(i);
        for (std::size_t t = 0; t < words; ++t) {
          std::uint64_t bits = offered[t] & ~seen[t];
          unseen -= static_cast<std::size_t>(std::popcount(bits));
          seen[t] |= bits;
          for (; bits != 0; bits &= bits - 1) {
            parent[lowest_origin(t, bits)] = u;
          }
        }
      }
      // The fill rule: accept the lowest cap - size new origins.
      std::uint64_t room = cap_ - count_[w];
      run.clear();
      for (std::size_t t = 0; t < words; ++t) {
        std::uint64_t bits = seen[t] & ~known_w[t];
        res_.buffered += static_cast<std::uint64_t>(std::popcount(bits));
        kept[t] = 0;
        for (; bits != 0 && room > 0; bits &= bits - 1, --room) {
          const std::size_t j = lowest_origin(t, bits);
          run.push_back(
              {.origin = center[j], .dist = dist, .parent = parent[j]});
          kept[t] |= bits & (~bits + 1);
        }
        known_w[t] |= kept[t];
      }
      if (run.empty()) continue;  // nothing new: w stays silent
      next_.masks.insert(next_.masks.end(), kept.begin(), kept.end());
      accept_run(w, run);
    }
    end_layer();
  }
}

}  // namespace

KnowledgeStore::KnowledgeStore(std::vector<std::size_t> offsets,
                               std::vector<Knowledge> records)
    : offsets_(std::move(offsets)), records_(std::move(records)) {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != records_.size() ||
      !std::ranges::is_sorted(offsets_)) {
    throw std::invalid_argument(
        "KnowledgeStore: offsets must ascend from 0 to the record count");
  }
}

const Knowledge* find_knowledge(std::span<const Knowledge> list,
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

  Algorithm1Result res;
  LayeredPass pass(g, cap, res);
  // Masked iff a neighbor's W-word mask is no longer than the longest offer
  // list (cap) it replaces; the rule and its measurement are in popular.hpp.
  if (mask_words(sources.size()) <= cap) {
    pass.run_masked(sources, delta);
  } else {
    pass.run_pull(is_source, delta);
  }
  res.knowledge = pass.take_store();
  res.popular.assign(g.num_vertices(), 0);
  for (Vertex s : sources) res.popular[s] = pass.full(s) ? 1 : 0;

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
  res.popular.assign(n, 0);

  // Per-vertex state for the round-exact execution.  Everything below is
  // indexed by the executing vertex and touched by no one else, so the
  // program is safe on the multi-threaded engine at any thread count.
  // lists[v]: v's knowledge list, flattened into res.knowledge at the end.
  std::vector<std::vector<Knowledge>> lists(n);
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
        if (lists[v].size() >= cap) break;
        if (!known[v].insert(o).second) continue;
        lists[v].push_back({.origin = o, .dist = d, .parent = u});
        pending[v].push_back(o);
      }
      buf.clear();
    }
    if (layer_pos < pending[v].size()) {
      const Vertex o = pending[v][layer_pos];
      const std::uint32_t d = find_knowledge(lists[v], o)->dist;
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

  std::vector<std::size_t> offsets{0};
  offsets.reserve(std::size_t{n} + 1);
  std::vector<Knowledge> records;
  for (const std::vector<Knowledge>& list : lists) {
    records.insert(records.end(), list.begin(), list.end());
    offsets.push_back(records.size());
  }
  res.knowledge = KnowledgeStore(std::move(offsets), std::move(records));
  for (Vertex s : sources) res.popular[s] = lists[s].size() >= cap ? 1 : 0;
  return res;
}

}  // namespace nas::core
