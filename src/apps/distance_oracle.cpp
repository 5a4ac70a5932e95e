#include "apps/distance_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/bfs_kernel.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nas::apps {

using graph::Vertex;

namespace {

constexpr char kMagic[] = "NAS-ORACLE v1";

/// %.17g round-trips every finite IEEE double exactly.
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Six significant digits, the rendering every stats/sink row uses for reals.
std::string render_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::uint64_t resolve_capacity(std::uint64_t budget_bytes, Vertex n) {
  if (n == 0) return 0;
  return budget_bytes / (static_cast<std::uint64_t>(n) * sizeof(std::uint32_t));
}

}  // namespace

SpannerDistanceOracle::SpannerDistanceOracle(const graph::Graph& g,
                                             const core::Params& params,
                                             OracleOptions options)
    : SpannerDistanceOracle(core::build_spanner(g, params, {.validate = false}),
                            options) {}

SpannerDistanceOracle::SpannerDistanceOracle(core::SpannerResult result,
                                             OracleOptions options)
    : csr_(graph::Csr::from_graph(result.spanner)),
      params_(std::move(result.params)),
      mult_(params_->stretch_multiplicative()),
      add_(params_->stretch_additive()),
      capacity_(resolve_capacity(options.cache_budget_bytes,
                                 csr_.num_vertices())) {}

SpannerDistanceOracle::SpannerDistanceOracle(graph::Graph spanner,
                                             double multiplicative,
                                             double additive,
                                             OracleOptions options,
                                             std::optional<core::Params> params)
    : SpannerDistanceOracle(graph::Csr::from_graph(spanner), multiplicative,
                            additive, options, std::move(params)) {}

SpannerDistanceOracle::SpannerDistanceOracle(graph::Csr spanner,
                                             double multiplicative,
                                             double additive,
                                             OracleOptions options,
                                             std::optional<core::Params> params)
    : csr_(std::move(spanner)),
      params_(std::move(params)),
      mult_(multiplicative),
      add_(additive),
      capacity_(resolve_capacity(options.cache_budget_bytes,
                                 csr_.num_vertices())) {}

const graph::Graph& SpannerDistanceOracle::spanner() const {
  if (!materialized_) {
    materialized_ = std::make_shared<const graph::Graph>(csr_.to_graph());
  }
  return *materialized_;
}

void SpannerDistanceOracle::check_vertex(Vertex v) const {
  if (v >= csr_.num_vertices()) {
    throw std::invalid_argument("SpannerDistanceOracle: vertex out of range");
  }
}

void SpannerDistanceOracle::cache_insert(Vertex s,
                                         std::vector<std::uint32_t>&& dist) const {
  if (capacity_ == 0) return;
  cache_[s] = CacheEntry{std::move(dist), clock_};
  while (cache_.size() > capacity_) {
    // Deterministic LRU: oldest logical clock first, ties broken towards the
    // smallest source ID.  A linear scan — the capacity bounds the cost, and
    // cache state stays a pure function of the query history.
    auto victim = cache_.begin();
    for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    cache_.erase(victim);
    ++evictions_;
  }
}

std::uint32_t SpannerDistanceOracle::query(Vertex u, Vertex v) const {
  const Query request{u, v};
  return batch_query(std::span<const Query>(&request, 1)).front();
}

std::vector<std::uint32_t> SpannerDistanceOracle::batch_query(
    std::span<const Query> queries, unsigned threads, BatchStats* stats) const {
  for (const auto& q : queries) {
    check_vertex(q.u);
    check_vertex(q.v);
  }

  // Plan (serial): pick one BFS source per request — a cached endpoint when
  // available, else the smaller ID so (u,v) and (v,u) share one pass — and
  // deduplicate the uncached sources in first-appearance order.  Cache state
  // is deterministic, so the plan is a pure function of the query history.
  std::vector<Vertex> source_of(queries.size(), graph::kInvalidVertex);
  std::vector<Vertex> missing;
  std::unordered_map<Vertex, std::size_t> missing_index;
  // Hit sources are *iterated* below (refresh pass), so they live in a
  // first-appearance vector; the unordered set only answers membership.
  std::vector<Vertex> hit_sources;
  std::unordered_set<Vertex> hit_seen;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [u, v] = queries[i];
    if (u == v) continue;
    Vertex s = std::min(u, v);
    if (cache_.count(u) != 0) {
      s = u;
    } else if (cache_.count(v) != 0) {
      s = v;
    }
    source_of[i] = s;
    if (cache_.count(s) != 0) {
      if (hit_seen.insert(s).second) hit_sources.push_back(s);
    } else if (missing_index.emplace(s, missing.size()).second) {
      missing.push_back(s);
    }
  }

  // BFS the uncached sources, sharded across the pool.  Every worker writes
  // only its own sources' slots and owns one reused BfsScratch, so the
  // filled distance vectors are identical at any thread count.  The workers
  // stream the shared CSR arrays read-only.
  std::vector<std::vector<std::uint32_t>> fresh(missing.size());
  util::ThreadPool::run_sharded(
      missing.size(), threads, [&](std::size_t begin, std::size_t end) {
        graph::BfsScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          scratch.run(csr_, missing[i], graph::BfsKernel::kAuto);
          fresh[i].resize(csr_.num_vertices());
          scratch.copy_distances(fresh[i]);
        }
      });
  bfs_passes_ += missing.size();

  // Answer in request order (serial).
  std::vector<std::uint32_t> answers(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Vertex s = source_of[i];
    if (s == graph::kInvalidVertex) continue;  // u == v
    const Vertex t = s == queries[i].u ? queries[i].v : queries[i].u;
    const auto hit = cache_.find(s);
    answers[i] = hit != cache_.end() ? hit->second.dist[t]
                                     : fresh[missing_index.at(s)][t];
  }

  // Cache maintenance (serial, deterministic): the whole batch counts as one
  // logical-clock tick; touched entries are refreshed in first-appearance
  // order, the fresh sources are inserted in first-appearance order, and
  // eviction trims to the budget.
  ++clock_;
  for (const Vertex s : hit_sources) cache_.at(s).last_used = clock_;
  const auto evictions_before = evictions_;
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache_insert(missing[i], std::move(fresh[i]));
  }

  if (stats != nullptr) {
    stats->queries = queries.size();
    stats->distinct_sources = hit_sources.size() + missing.size();
    stats->cache_hits = hit_sources.size();
    stats->bfs_passes = missing.size();
    stats->evictions = evictions_ - evictions_before;
    stats->shards = util::ThreadPool::resolve(threads, missing.size());
  }
  return answers;
}

// --- snapshot ----------------------------------------------------------------

void SpannerDistanceOracle::save(std::ostream& out) const {
  out << kMagic << '\n';
  if (params_.has_value()) {
    // Store the constructor arguments: Params::paper takes the user-facing
    // eps', Params::practical the internal eps.
    const auto& p = *params_;
    out << "params " << (p.is_paper_mode() ? "paper" : "practical") << ' '
        << render_double(p.is_paper_mode() ? p.eps_user() : p.eps_internal())
        << ' ' << p.kappa() << ' ' << render_double(p.rho()) << ' '
        << p.n_estimate() << '\n';
  } else {
    out << "params none\n";
  }
  out << "guarantee " << render_double(mult_) << ' ' << render_double(add_)
      << '\n';
  graph::write_edge_list(csr_, out);
}

void SpannerDistanceOracle::save_file(const std::string& path,
                                      SnapshotFormat format) const {
  if (format == SnapshotFormat::kV2) {
    save_snapshot_v2({csr_, mult_, add_, params_}, path);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("oracle snapshot: cannot open " + path +
                             " for writing");
  }
  save(out);
  if (!out) throw std::runtime_error("oracle snapshot: write failed: " + path);
}

SpannerDistanceOracle SpannerDistanceOracle::load(std::istream& in,
                                                  OracleOptions options) {
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("oracle snapshot: " + what + " at line " +
                             std::to_string(line_no));
  };
  std::string line;
  const auto next_line = [&](const char* expected) {
    ++line_no;
    if (!std::getline(in, line)) {
      fail(std::string("truncated snapshot (expected ") + expected + ")");
    }
  };

  next_line("magic header");
  if (line != kMagic) {
    fail("bad magic \"" + line + "\" (expected \"" + kMagic + "\")");
  }

  next_line("params line");
  std::istringstream params_line(line);
  std::string tag, mode;
  if (!(params_line >> tag >> mode) || tag != "params") {
    fail("malformed params line (expected 'params none|practical|paper ...')");
  }
  bool have_params = false;
  double eps = 0.0, rho = 0.0;
  int kappa = 0;
  std::uint64_t n_estimate = 0;
  std::string trailing;
  if (mode == "none") {
    if (params_line >> trailing) fail("trailing token in params line");
  } else if (mode == "practical" || mode == "paper") {
    if (!(params_line >> eps >> kappa >> rho >> n_estimate)) {
      fail("malformed params line (expected 'params " + mode +
           " <eps> <kappa> <rho> <n_estimate>')");
    }
    if (params_line >> trailing) fail("trailing token in params line");
    have_params = true;
  } else {
    fail("unknown params mode \"" + mode + "\"");
  }

  next_line("guarantee line");
  std::istringstream guarantee_line(line);
  double mult = 0.0, add = 0.0;
  if (!(guarantee_line >> tag >> mult >> add) || tag != "guarantee") {
    fail("malformed guarantee line (expected 'guarantee <mult> <add>')");
  }
  if (guarantee_line >> trailing) fail("trailing token in guarantee line");

  // The edge-list body reports errors with absolute line numbers by carrying
  // the header offset into graph::read_edge_list.
  graph::Graph spanner;
  try {
    spanner = graph::read_edge_list(in, line_no);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("oracle snapshot: ") + e.what());
  }

  std::optional<core::Params> params;
  if (have_params) {
    params = rebuild_snapshot_params(mode, eps, kappa, rho, n_estimate,
                                     spanner.num_vertices(), mult, add,
                                     "line 2");
  }
  return SpannerDistanceOracle(std::move(spanner), mult, add, options,
                               std::move(params));
}

SpannerDistanceOracle SpannerDistanceOracle::load_file(const std::string& path,
                                                       OracleOptions options) {
  if (detect_snapshot_format(path) == SnapshotFormat::kV2) {
    auto contents = load_snapshot_v2(path);
    return SpannerDistanceOracle(std::move(contents.csr),
                                 contents.multiplicative, contents.additive,
                                 options, std::move(contents.params));
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("oracle snapshot: cannot open " + path);
  return load(in, options);
}

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  queries += other.queries;
  distinct_sources += other.distinct_sources;
  cache_hits += other.cache_hits;
  bfs_passes += other.bfs_passes;
  evictions += other.evictions;
  shards = std::max(shards, other.shards);
  return *this;
}

std::uint64_t digest_answers(std::span<const std::uint32_t> answers) {
  std::uint64_t h = util::mix64(answers.size());
  for (const auto a : answers) h = util::mix64(h ^ a);
  return h;
}

util::JsonObject oracle_stats_fields(const SpannerDistanceOracle& oracle,
                                     const BatchStats& stats) {
  using util::JsonValue;
  return {
      {"universe", JsonValue::number(
                       static_cast<std::uint64_t>(oracle.num_vertices()))},
      {"spanner_edges", JsonValue::number(static_cast<std::uint64_t>(
                            oracle.spanner_edges()))},
      {"guarantee_mult",
       JsonValue::literal(render_real(oracle.multiplicative()))},
      {"guarantee_add", JsonValue::literal(render_real(oracle.additive()))},
      {"cache_capacity", JsonValue::number(oracle.cache_capacity())},
      {"queries", JsonValue::number(stats.queries)},
      {"distinct_sources", JsonValue::number(stats.distinct_sources)},
      {"cache_hits", JsonValue::number(stats.cache_hits)},
      {"bfs_passes", JsonValue::number(stats.bfs_passes)},
      {"evictions", JsonValue::number(stats.evictions)},
  };
}

}  // namespace nas::apps
