// Experiment K1 — BFS kernel microbench: edges inspected and wall-clock for
// the top-down, direction-optimizing (hybrid), and auto kernels on the same
// graphs.
//
// The serving and verification hot paths spend their time in single-source
// BFS over the Csr view (src/graph/bfs_kernel.hpp).  This bench drives the
// kernels directly — no oracle, no spanner — so the traversal cost is
// isolated: per (family, n, kernel) it runs the same source set on one
// reused BfsScratch and reports the kernel's own work counters
// (edges_inspected, top-down/bottom-up level split) next to wall-clock.
//
//   ./bfs_kernels [--family er,er_dense,ba,grid] [--n 4000,16000] [--seed 1]
//       [--sources 16] [--json BENCH_bfs.json]
//
// Two gates make the run self-checking (nonzero exit on violation):
//   * identity — every kernel's distance array is byte-identical to
//     top-down's for every source (distances are level structure, not
//     traversal order, so any divergence is a kernel bug);
//   * work — on the ba and er families (hub-heavy / average degree ~8, the
//     shapes direction-optimizing targets) hybrid must inspect no more
//     edges than top-down.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "run/scenario.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

namespace {

constexpr std::array<graph::BfsKernel, 3> kKernels = {
    graph::BfsKernel::kTopDown, graph::BfsKernel::kHybrid,
    graph::BfsKernel::kAuto};

/// Deterministic source spread: `count` vertices striding the id space, so
/// every kernel (and every rerun) sees the same sources without an RNG.
std::vector<graph::Vertex> pick_sources(graph::Vertex n, std::uint64_t count) {
  const auto want = static_cast<graph::Vertex>(
      std::min<std::uint64_t>(count, n == 0 ? 0 : n));
  std::vector<graph::Vertex> sources;
  sources.reserve(want);
  const graph::Vertex stride =
      want == 0 ? 1 : std::max<graph::Vertex>(n / want, 1);
  for (graph::Vertex i = 0; i < want; ++i) sources.push_back(i * stride);
  return sources;
}

struct KernelRow {
  std::string family;
  graph::Vertex n = 0;
  std::size_t m = 0;
  graph::BfsKernel kernel = graph::BfsKernel::kTopDown;
  graph::BfsKernelStats stats;
  double wall_ms = 0.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string family_spec = flags.str(
      "family", "er,er_dense,ba,grid", "comma-separated graph families");
  const std::string n_spec =
      flags.str("n", "4000,16000", "comma-separated target vertex counts");
  const auto seed = static_cast<std::uint64_t>(
      flags.integer("seed", 1, "graph generator seed"));
  const auto num_sources = static_cast<std::uint64_t>(
      flags.integer("sources", 16, "BFS sources per (family, n) point"));
  const std::string json_path =
      flags.str("json", "BENCH_bfs.json", "perf JSON output path");
  if (flags.handle_help(
          "bfs_kernels — experiment K1: BFS kernel work counters and "
          "wall-clock (topdown vs hybrid vs auto)")) {
    return 0;
  }
  flags.reject_unknown();

  const auto family_list = run::split_list(family_spec);
  std::vector<graph::Vertex> n_list;
  for (const auto& item : run::split_list(n_spec)) {
    n_list.push_back(
        static_cast<graph::Vertex>(util::Flags::parse_integer("n", item)));
  }
  if (family_list.empty() || n_list.empty()) {
    std::cerr << "error: empty --family or --n list\n";
    return 2;
  }

  bench::banner("K1", "BFS kernels: edges inspected, topdown vs hybrid");

  std::vector<KernelRow> rows;
  bool all_identical = true;
  bool work_gate_ok = true;
  for (const auto& family : family_list) {
    for (const auto n : n_list) {
      const auto g = graph::make_workload(family, n, seed);
      const auto csr = graph::Csr::from_graph(g);
      const auto sources = pick_sources(g.num_vertices(), num_sources);
      std::cout << "family=" << family << " " << g.summary() << " ("
                << sources.size() << " sources)\n";

      // Reference distances: one top-down array per source; hybrid and auto
      // must reproduce each byte-for-byte.
      std::vector<std::vector<std::uint32_t>> reference;
      std::uint64_t topdown_edges = 0;
      for (const auto kernel : kKernels) {
        KernelRow row;
        row.family = family;
        row.n = g.num_vertices();
        row.m = g.num_edges();
        row.kernel = kernel;
        graph::BfsScratch scratch;
        std::vector<std::uint32_t> dist(g.num_vertices());
        util::Timer timer;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          graph::BfsKernelStats stats;
          scratch.run(csr, sources[i], kernel, &stats);
          scratch.copy_distances(dist);
          row.stats.edges_inspected += stats.edges_inspected;
          row.stats.top_down_levels += stats.top_down_levels;
          row.stats.bottom_up_levels += stats.bottom_up_levels;
          if (kernel == graph::BfsKernel::kTopDown) {
            reference.push_back(dist);
          } else if (dist != reference[i]) {
            row.identical = false;
          }
        }
        row.wall_ms = timer.millis();
        if (kernel == graph::BfsKernel::kTopDown) {
          topdown_edges = row.stats.edges_inspected;
        } else if (kernel == graph::BfsKernel::kHybrid &&
                   (family == "ba" || family == "er") &&
                   row.stats.edges_inspected > topdown_edges) {
          work_gate_ok = false;
        }
        all_identical = all_identical && row.identical;
        rows.push_back(row);
      }
    }
  }

  util::Table t({"family", "n", "kernel", "edges inspected", "td lvls",
                 "bu lvls", "ms", "identical"});
  for (const auto& row : rows) {
    t.add_row({row.family, std::to_string(row.n),
               graph::bfs_kernel_name(row.kernel),
               std::to_string(row.stats.edges_inspected),
               std::to_string(row.stats.top_down_levels),
               std::to_string(row.stats.bottom_up_levels),
               util::Table::num(row.wall_ms, 2),
               row.identical ? "yes" : "NO"});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nidentity gate: every kernel's distances match top-down's "
               "byte-for-byte; work gate: hybrid edges <= topdown on ba/er.\n";
  if (!all_identical) {
    std::cout << "ERROR: a kernel's distance array diverged from top-down.\n";
  }
  if (!work_gate_ok) {
    std::cout << "ERROR: hybrid inspected more edges than top-down on a "
                 "hub-heavy family.\n";
  }

  if (!json_path.empty()) {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const util::JsonObject fields{
          {"family", util::JsonValue::str(row.family)},
          {"n", util::JsonValue::number(static_cast<std::uint64_t>(row.n))},
          {"m", util::JsonValue::number(static_cast<std::uint64_t>(row.m))},
          {"kernel", util::JsonValue::str(graph::bfs_kernel_name(row.kernel))},
          {"sources", util::JsonValue::number(num_sources)},
          {"edges_inspected",
           util::JsonValue::number(row.stats.edges_inspected)},
          {"top_down_levels",
           util::JsonValue::number(
               static_cast<std::uint64_t>(row.stats.top_down_levels))},
          {"bottom_up_levels",
           util::JsonValue::number(
               static_cast<std::uint64_t>(row.stats.bottom_up_levels))},
          {"wall_ms",
           util::JsonValue::literal(run::format_real(row.wall_ms, 4))},
          {"identical_to_topdown", util::JsonValue::boolean(row.identical)},
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

  return all_identical && work_gate_ok ? 0 : 1;
}
