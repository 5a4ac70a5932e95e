// Experiment A1 — the Theorem 2.1 contract of Algorithm 1 (Appendix A),
// measured: round cost against the deg*delta schedule, knowledge
// completeness of unpopular centers, per-edge layer load against the
// CONGEST window capacity, and the pass's own work counters.
//
//   ./alg1_popularity [--family er] [--n 1000] [--csv F] [--json F]
//
// Rows: every vertex a center over a (delta, cap) grid, plus one
// sparse-center row shaped like a construction phase-1 run (every 400th
// vertex a center, delta = 16, cap above the center count, so no list ever
// fills).  Per row it reports `buffered` (arrival entries held for sorting),
// `receivers_scanned` and `origin_words` (origin-mask words read by the
// masked regime, 0 where the pull pass ran) next to `messages` and
// wall-clock.
//
// Work gates (nonzero exit on violation):
//   * buffered: on the er and er_dense families the sparse row must hold
//     buffered <= messages / kBufferedFactor.  A pass that buffers every
//     arrival has buffered == messages; buffering only the origins new to a
//     receiver leaves about one entry per accepted origin, which is
//     messages / (average degree): ratio 8.0 on er, 32.0 on er_dense (n=1000
//     and n=8000).
//   * origin words: on er_dense, when the sparse row has at least
//     kMaskedMinCenters centers, it must run masked and read
//     0 < origin_words <= messages / kOriginWordFactor.  One mask word
//     replaces the up-to-|S| offer entries a neighbor delivers, and a
//     receiver stops reading once it has seen every center; messages /
//     origin_words is 25.0 at n=8,000 (20 centers) and 37.9 at n=16,000
//     (40 centers).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/popular.hpp"
#include "graph/bfs.hpp"
#include "run/scenario.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

namespace {

constexpr std::uint64_t kBufferedFactor = 4;
constexpr std::uint64_t kOriginWordFactor = 2;
constexpr std::size_t kMaskedMinCenters = 16;
constexpr graph::Vertex kSparseStride = 400;
constexpr std::uint64_t kSparseDelta = 16;

struct Row {
  std::string centers;  // "all" or "sparse"
  std::uint64_t num_centers = 0;
  std::uint64_t delta = 0;
  std::uint64_t cap = 0;
  core::Algorithm1Result res;
  std::uint64_t popular = 0;
  bool complete = true;
  double wall_ms = 0.0;
};

/// Runs Algorithm 1 and checks Theorem 2.1(2) for a sample of unpopular
/// centers: each knows every other center within delta.
Row measure(const graph::Graph& g, const std::vector<graph::Vertex>& centers,
            const std::string& label, std::uint64_t delta, std::uint64_t cap) {
  Row row;
  row.centers = label;
  row.num_centers = centers.size();
  row.delta = delta;
  row.cap = cap;
  util::Timer timer;
  row.res = core::run_algorithm1(g, centers, delta, cap);
  row.wall_ms = timer.millis();
  for (graph::Vertex v : centers) row.popular += row.res.popular[v];

  int checked = 0;
  for (std::size_t i = 0; i < centers.size() && checked < 50; i += 7) {
    const graph::Vertex v = centers[i];
    if (row.res.popular[v]) continue;
    ++checked;
    const auto bfs = graph::bfs(g, v);
    std::size_t within = 0;
    for (graph::Vertex u : centers) {
      if (u != v && bfs.dist[u] != graph::kInfDist && bfs.dist[u] <= delta) {
        ++within;
      }
    }
    if (row.res.knowledge[v].size() != within) row.complete = false;
  }
  return row;
}

/// The columns shared by the table and the CSV, in order.
std::vector<std::string> shared_cells(const Row& row) {
  const core::Algorithm1Result& res = row.res;
  std::vector<std::string> cells = {row.centers};
  const auto add = [&cells](std::uint64_t value) {
    cells.push_back(std::to_string(value));
  };
  add(row.delta);
  add(row.cap);
  add(res.rounds_charged);
  add(1 + row.delta * row.cap);
  add(res.messages);
  add(res.max_edge_layer_load);
  add(row.popular);
  add(res.buffered);
  add(res.receivers_scanned);
  add(res.origin_words);
  return cells;
}

int bench_main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n =
      run::vertex_count("n", flags.integer("n", 1000, "target vertex count"));
  const std::string family = flags.str("family", "er", "workload family");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  const std::string json_path = flags.str("json", "", "perf JSON output path");
  if (flags.handle_help("alg1_popularity — A1: Algorithm 1 contract")) return 0;
  flags.reject_unknown();

  bench::banner("A1", "Algorithm 1 (popular cluster detection) contract");
  const auto g = graph::make_workload(family, n, 41);
  std::cout << "workload: " << family << " " << g.summary() << "\n\n";

  std::vector<graph::Vertex> centers;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) centers.push_back(v);
  std::vector<graph::Vertex> sparse;
  for (graph::Vertex v = 0; v < g.num_vertices(); v += kSparseStride) {
    sparse.push_back(v);
  }

  std::vector<Row> rows;
  for (const std::uint64_t delta : {1, 2, 4, 8}) {
    for (const std::uint64_t cap : {2, 8, 32}) {
      rows.push_back(measure(g, centers, "all", delta, cap));
    }
  }
  const std::uint64_t sparse_cap = sparse.size() + 1;
  rows.push_back(measure(g, sparse, "sparse", kSparseDelta, sparse_cap));
  const core::Algorithm1Result& gate_row = rows.back().res;
  const bool gated = family == "er" || family == "er_dense";
  const bool work_gate_ok =
      !gated || gate_row.buffered <= gate_row.messages / kBufferedFactor;
  const bool word_gated =
      family == "er_dense" && sparse.size() >= kMaskedMinCenters;
  const bool word_gate_ok =
      !word_gated ||
      (gate_row.origin_words > 0 &&
       gate_row.origin_words <= gate_row.messages / kOriginWordFactor);

  util::CsvWriter csv(csv_path, {"centers", "delta", "cap", "rounds",
                                 "schedule", "messages", "max_edge_layer_load",
                                 "popular", "buffered", "receivers_scanned",
                                 "origin_words", "complete_ok"});
  util::Table t({"centers", "delta", "cap", "rounds", "= 1+delta*cap",
                 "messages", "max edge load/layer (<=cap)", "#popular",
                 "buffered", "receivers scanned", "origin words",
                 "unpopular knowledge complete", "ms"});
  bool all_complete = true;
  for (const Row& row : rows) {
    all_complete = all_complete && row.complete;
    std::vector<std::string> cells = shared_cells(row);
    std::vector<std::string> table_row = cells;
    table_row.emplace_back(row.complete ? "yes" : "NO");
    table_row.push_back(util::Table::num(row.wall_ms, 2));
    t.add_row(table_row);
    cells.emplace_back(row.complete ? "1" : "0");
    csv.row(cells);
  }
  t.print(std::cout);
  std::cout << "\nshape checks: rounds follow the 1+delta*cap schedule exactly;\n"
            << "per-edge layer load never exceeds cap (CONGEST capacity);\n"
            << "popularity counts grow with delta and shrink with cap.\n"
            << "work gate (er, er_dense): sparse row buffered <= messages / "
            << kBufferedFactor << ".\n"
            << "origin-word gate (er_dense, >= " << kMaskedMinCenters
            << " sparse centers): 0 < origin_words <= messages / "
            << kOriginWordFactor << ".\n";
  if (!all_complete) {
    std::cout << "ERROR: an unpopular center missed a center within delta.\n";
  }
  if (!work_gate_ok) {
    std::cout << "ERROR: sparse row buffered " << gate_row.buffered
              << " > messages " << gate_row.messages << " / "
              << kBufferedFactor << ".\n";
  }
  if (!word_gate_ok) {
    std::cout << "ERROR: sparse row origin_words " << gate_row.origin_words
              << " not in (0, messages " << gate_row.messages << " / "
              << kOriginWordFactor << "].\n";
  }

  if (!json_path.empty()) {
    const auto num = [](std::uint64_t v) { return util::JsonValue::number(v); };
    const std::uint64_t n_out = g.num_vertices();
    const std::uint64_t m_out = g.num_edges();
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const util::JsonObject fields{
          {"family", util::JsonValue::str(family)},
          {"n", num(n_out)},
          {"m", num(m_out)},
          {"centers", util::JsonValue::str(row.centers)},
          {"num_centers", num(row.num_centers)},
          {"delta", num(row.delta)},
          {"cap", num(row.cap)},
          {"rounds", num(row.res.rounds_charged)},
          {"messages", num(row.res.messages)},
          {"max_edge_layer_load", num(row.res.max_edge_layer_load)},
          {"popular", num(row.popular)},
          {"buffered", num(row.res.buffered)},
          {"receivers_scanned", num(row.res.receivers_scanned)},
          {"origin_words", num(row.res.origin_words)},
          {"wall_ms",
           util::JsonValue::literal(run::format_real(row.wall_ms, 4))},
          {"complete", util::JsonValue::boolean(row.complete)},
      };
      out += "  ";
      out += util::render_json_object(fields);
      if (i + 1 < rows.size()) out += ",";
      out += "\n";
    }
    out += "]\n";
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "error: cannot open " << json_path << "\n";
      return 2;
    }
    file << out;
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }

  return all_complete && work_gate_ok && word_gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::guarded_main("alg1_popularity", argc, argv, bench_main);
}
