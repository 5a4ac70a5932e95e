#include "run/oracle_source.hpp"

#include "core/params.hpp"
#include "run/graph_cache.hpp"

namespace nas::run {

ScenarioSpec oracle_build_flags(const util::Flags& flags) {
  ScenarioSpec spec;
  spec.family = flags.str("family", spec.family,
                          "graph family (or file:<path> for an edge list)");
  spec.n = static_cast<graph::Vertex>(flags.integer(
      "n", spec.n, "target vertex count (generated families)"));
  spec.seed = static_cast<std::uint64_t>(flags.integer(
      "seed", static_cast<std::int64_t>(spec.seed), "graph generator seed"));
  spec.eps = flags.real("eps", spec.eps, "schedule epsilon");
  spec.kappa =
      static_cast<int>(flags.integer("kappa", spec.kappa, "schedule kappa"));
  spec.rho = flags.real("rho", spec.rho, "schedule rho");
  spec.mode = flags.str("mode", spec.mode, "schedule mode: practical|paper");
  return spec;
}

apps::SpannerDistanceOracle open_oracle(const std::string& load_path,
                                        const ScenarioSpec& build,
                                        const apps::OracleOptions& options) {
  core::Params::check_mode(build.mode);
  if (!load_path.empty()) {
    return apps::SpannerDistanceOracle::load_file(load_path, options);
  }
  const graph::Graph g = make_graph(build.family, build.n, build.seed);
  return apps::SpannerDistanceOracle(
      g,
      core::Params::for_mode(build.mode, g.num_vertices(), build.eps,
                             build.kappa, build.rho),
      options);
}

}  // namespace nas::run
