// Tests for the declarative scenario-runner subsystem (src/run): matrix
// expansion order, scenario-file parsing, GraphCache build-once semantics,
// Runner bit-identity across worker counts, and the unified sinks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "run/graph_cache.hpp"
#include "run/runner.hpp"
#include "run/scenario.hpp"
#include "run/sinks.hpp"
#include "util/json.hpp"
#include "verify/stretch.hpp"

namespace {

using namespace nas;

// ---------------------------------------------------------------------------
// ScenarioMatrix

TEST(ScenarioMatrix, ExpandsCrossProductInFixedOrder) {
  run::ScenarioMatrix m;
  m.families = {"er", "grid"};
  m.ns = {128, 256};
  m.epss = {0.5, 0.25};
  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), 8u);
  ASSERT_EQ(m.size(), 8u);
  // family outermost, then n, then eps (seed/algo/kappa/rho are singleton).
  EXPECT_EQ(specs[0].family, "er");
  EXPECT_EQ(specs[0].n, 128u);
  EXPECT_EQ(specs[0].eps, 0.5);
  EXPECT_EQ(specs[1].eps, 0.25);
  EXPECT_EQ(specs[2].n, 256u);
  EXPECT_EQ(specs[4].family, "grid");
  EXPECT_EQ(specs[7].family, "grid");
  EXPECT_EQ(specs[7].n, 256u);
  EXPECT_EQ(specs[7].eps, 0.25);
  // Scalars are copied into every spec.
  for (const auto& s : specs) {
    EXPECT_EQ(s.mode, "practical");
    EXPECT_EQ(s.verify_mode, "off");
  }
}

TEST(ScenarioMatrix, ExpansionIsDeterministic) {
  run::ScenarioMatrix m;
  m.families = {"er", "ba", "grid"};
  m.ns = {64, 128};
  m.kappas = {3, 4};
  const auto a = m.expand();
  const auto b = m.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id());
  }
}

TEST(ScenarioMatrix, SetParsesListsAndScalars) {
  run::ScenarioMatrix m;
  m.set("family", "er, grid , ba");
  m.set("n", "128,256");
  m.set("eps", "0.5, 0.25");
  m.set("verify", "8");
  EXPECT_EQ(m.families, (std::vector<std::string>{"er", "grid", "ba"}));
  EXPECT_EQ(m.ns, (std::vector<graph::Vertex>{128, 256}));
  EXPECT_EQ(m.epss, (std::vector<double>{0.5, 0.25}));
  EXPECT_EQ(m.verify_mode, "sampled");
  EXPECT_EQ(m.verify_sources, 8u);
}

TEST(ScenarioMatrix, VerifySourcesDoNotDowngradeExplicitExactMode) {
  run::ScenarioMatrix m;
  m.set("verify-mode", "exact");
  m.set("verify", "32");  // refine the source count, keep exact
  EXPECT_EQ(m.verify_mode, "exact");
  EXPECT_EQ(m.verify_sources, 32u);
  m.set("verify", "0");  // 0 always means off
  EXPECT_EQ(m.verify_mode, "off");
  m.set("verify", "8");  // off -> sampled
  EXPECT_EQ(m.verify_mode, "sampled");
}

TEST(ScenarioMatrix, OracleAxesExpandParseAndTagIds) {
  run::ScenarioMatrix m;
  m.set("workload", "uniform, zipf");
  m.set("cache-budget", "0, 4096");
  m.set("query-threads", "1,8");
  m.set("queries", "64");
  m.set("workload-seed", "9");
  m.set("zipf-theta", "1.2");
  ASSERT_EQ(m.size(), 8u);  // 2 workloads x 2 budgets x 2 thread counts
  const auto specs = m.expand();
  // workload above cache_budget above query_threads, innermost axes.
  EXPECT_EQ(specs[0].workload, "uniform");
  EXPECT_EQ(specs[0].cache_budget, 0u);
  EXPECT_EQ(specs[0].query_threads, 1u);
  EXPECT_EQ(specs[1].query_threads, 8u);
  EXPECT_EQ(specs[2].cache_budget, 4096u);
  EXPECT_EQ(specs[4].workload, "zipf");
  for (const auto& s : specs) {
    EXPECT_EQ(s.queries, 64u);
    EXPECT_EQ(s.workload_seed, 9u);
    EXPECT_EQ(s.zipf_theta, 1.2);
  }
  // Serving scenarios tag the id with every serving axis; non-serving ids
  // keep the PR-3 shape.
  EXPECT_EQ(specs[0].id(),
            "er/n=1024/seed=1/em/eps=0.25/kappa=3/rho=0.4"
            "/w=uniform/q=64/cb=0/qt=1");
  EXPECT_NE(specs[0].id(), specs[1].id());  // query-threads sweep stays unique
  run::ScenarioSpec off;
  EXPECT_EQ(off.id(), "er/n=1024/seed=1/em/eps=0.25/kappa=3/rho=0.4");
  EXPECT_THROW(m.set("workload", "pareto"), std::invalid_argument);
  EXPECT_THROW(m.set("queries", "-1"), std::invalid_argument);
  EXPECT_THROW(m.set("cache-budget", "-4096"), std::invalid_argument);
  EXPECT_THROW(m.set("query-threads", "1,-2"), std::invalid_argument);
}

TEST(ScenarioMatrix, SetRejectsUnknownKeysAndBadValues) {
  run::ScenarioMatrix m;
  EXPECT_THROW(m.set("bogus", "1"), std::invalid_argument);
  EXPECT_THROW(m.set("n", "12,abc"), std::invalid_argument);
  EXPECT_THROW(m.set("eps", "0.5x"), std::invalid_argument);
  EXPECT_THROW(m.set("verify-mode", "sometimes"), std::invalid_argument);
  // An unknown mode must not fall through to practical, and a negative count
  // must not wrap (`verify = -1` would ask for 4,294,967,295 sources).
  EXPECT_THROW(m.set("mode", "bogus"), std::invalid_argument);
  EXPECT_THROW(m.set("verify", "-1"), std::invalid_argument);
  EXPECT_THROW(m.set("verify-threads", "-1"), std::invalid_argument);
  EXPECT_THROW(m.set("build-threads", "-2"), std::invalid_argument);
  EXPECT_EQ(m.mode, "practical");
  EXPECT_EQ(m.verify_sources, 16u);
  EXPECT_EQ(m.verify_threads, 1u);
  EXPECT_EQ(m.build_threads, 0u);
  m.set("mode", "paper");
  EXPECT_EQ(m.mode, "paper");
  try {
    m.set("n", "abc");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the key and the offending value (the Flags bugfix).
    EXPECT_NE(std::string(e.what()).find("n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(ScenarioMatrix, FromFileParsesKeysCommentsAndReportsLines) {
  const std::string path = ::testing::TempDir() + "nas_run_scenario_test.txt";
  {
    std::ofstream out(path);
    out << "# smoke matrix\n"
        << "family = er, grid\n"
        << "\n"
        << "n = 128   # trailing comment\n"
        << "eps = 0.5,0.25\n"
        << "verify = 4\n";
  }
  const auto m = run::ScenarioMatrix::from_file(path);
  EXPECT_EQ(m.families, (std::vector<std::string>{"er", "grid"}));
  EXPECT_EQ(m.ns, (std::vector<graph::Vertex>{128}));
  EXPECT_EQ(m.epss, (std::vector<double>{0.5, 0.25}));
  EXPECT_EQ(m.verify_sources, 4u);

  {
    std::ofstream out(path);
    out << "family = er\n" << "not a key-value line\n";
  }
  try {
    (void)run::ScenarioMatrix::from_file(path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
  // The retired serving-cluster axes and the BFS-kernel axis are plain
  // unknown keys: an old scenario file naming one fails loudly instead of
  // silently serving differently.
  for (const char* retired : {"cluster-shards", "partition", "replicas",
                              "route", "bfs-kernel"}) {
    {
      std::ofstream out(path);
      out << "family = er\n" << retired << " = 2\n";
    }
    try {
      (void)run::ScenarioMatrix::from_file(path);
      FAIL() << "expected runtime_error for " << retired;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(":2: unknown scenario key \"" +
                                           std::string(retired) + "\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)run::ScenarioMatrix::from_file("/nonexistent/zzz"),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// GraphCache

TEST(GraphCache, BuildsOncePerKeyAndSharesTheInstance) {
  run::GraphCache cache;
  bool hit = true;
  const auto a = cache.get("er", 128, 7, &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.get("er", 128, 7, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // literally the same graph object
  const auto c = cache.get("er", 128, 8, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GraphCache, CachedGraphIsBitIdenticalToDirectBuild) {
  run::GraphCache cache;
  const auto cached = cache.get("ba", 200, 3);
  const auto direct = graph::make_workload("ba", 200, 3);
  EXPECT_EQ(cached->num_vertices(), direct.num_vertices());
  EXPECT_EQ(cached->edges(), direct.edges());
}

TEST(GraphCache, FailedBuildRethrowsToEveryCaller) {
  run::GraphCache cache;
  EXPECT_THROW((void)cache.get("no_such_family", 64, 1),
               std::invalid_argument);
  // The failure is remembered, not retried into a success.
  EXPECT_THROW((void)cache.get("no_such_family", 64, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runner

run::ScenarioMatrix small_matrix() {
  run::ScenarioMatrix m;
  m.families = {"er", "grid", "ba"};
  m.ns = {96, 160};
  m.epss = {0.5, 0.25};
  m.verify_mode = "sampled";
  m.verify_sources = 6;
  return m;
}

TEST(Runner, RowsComeBackInSpecOrder) {
  const auto specs = small_matrix().expand();
  run::Runner runner;
  const auto rows = runner.run(specs, {.threads = 4});
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].index, i);
    EXPECT_EQ(rows[i].spec.id(), specs[i].id());
    EXPECT_TRUE(rows[i].passed()) << rows[i].spec.id() << ": " << rows[i].error;
  }
}

TEST(Runner, BitIdenticalRowsAndSinksAtThreadCounts_1_2_8) {
  const auto specs = small_matrix().expand();  // 3 families x 2 n x 2 eps
  ASSERT_GE(specs.size(), 12u);
  run::Runner base_runner;
  const auto base = base_runner.run(specs, {.threads = 1});
  const auto base_json = run::render_json(base);
  const auto base_csv = run::render_csv(base);
  for (const unsigned threads : {2u, 8u}) {
    run::Runner runner;
    const auto rows = runner.run(specs, {.threads = threads});
    ASSERT_EQ(rows.size(), base.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].spanner_edges, base[i].spanner_edges);
      EXPECT_EQ(rows[i].rounds, base[i].rounds);
      EXPECT_TRUE(verify::bit_identical(rows[i].report, base[i].report))
          << "report diverged at threads=" << threads << " row " << i;
    }
    // The deterministic sinks are byte-identical, not just field-identical.
    EXPECT_EQ(run::render_json(rows), base_json) << "threads=" << threads;
    EXPECT_EQ(run::render_csv(rows), base_csv) << "threads=" << threads;
  }
}

TEST(Runner, GraphCacheDeduplicatesAcrossSpecs) {
  const auto specs = small_matrix().expand();
  run::Runner runner;
  const auto rows = runner.run(specs, {.threads = 8});
  // 3 families x 2 sizes = 6 distinct graphs for 12 scenarios.
  EXPECT_EQ(runner.cache().size(), 6u);
  EXPECT_EQ(runner.cache().stats().misses, 6u);
  std::size_t hits = 0;
  for (const auto& row : rows) hits += row.graph_cache_hit ? 1 : 0;
  EXPECT_EQ(hits + runner.cache().stats().misses, rows.size());
}

TEST(Runner, FailedScenarioIsReportedNotThrown) {
  run::ScenarioSpec bad;
  bad.family = "no_such_family";
  run::ScenarioSpec good;
  good.family = "er";
  good.n = 96;
  run::Runner runner;
  const auto rows = runner.run({bad, good});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].ok);
  EXPECT_FALSE(rows[0].passed());
  EXPECT_NE(rows[0].error.find("no_such_family"), std::string::npos);
  EXPECT_TRUE(rows[1].passed());
}

TEST(Runner, AlgoAxisCoversBaselinesAndIdentity) {
  run::ScenarioMatrix m;
  m.families = {"er"};
  m.ns = {128};
  m.algos = {"em", "en17", "identity"};
  run::Runner runner;
  const auto rows = runner.run(m.expand());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_TRUE(row.ok) << row.error;
  }
  // identity returns the input graph itself.
  EXPECT_EQ(rows[2].spanner_edges, rows[2].m);
  EXPECT_EQ(rows[2].guarantee_mult, 1.0);
  // en17 with algo_seed 0 reuses the graph seed; a different algo_seed can
  // change the sampled spanner.
  run::ScenarioSpec en = m.expand()[1];
  en.algo_seed = 99;
  const auto reseeded = runner.run_one(en, 0, {});
  EXPECT_TRUE(reseeded.ok) << reseeded.error;
}

TEST(Runner, KeepGraphsRetainsGraphAndSpanner) {
  run::ScenarioSpec spec;
  spec.family = "grid";
  spec.n = 100;
  run::Runner runner;
  const auto row = runner.run_one(spec, 0, {.keep_graphs = true});
  ASSERT_TRUE(row.ok) << row.error;
  ASSERT_NE(row.graph, nullptr);
  ASSERT_NE(row.spanner, nullptr);
  EXPECT_EQ(row.graph->num_vertices(), row.n);
  EXPECT_EQ(row.spanner->num_edges(), row.spanner_edges);
  const auto bare = runner.run_one(spec, 0, {});
  EXPECT_EQ(bare.graph, nullptr);
  EXPECT_EQ(bare.spanner, nullptr);
}

// ---------------------------------------------------------------------------
// Sinks

TEST(Sinks, JsonEscapesStringsViaCentralEscaper) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(util::json_escape(std::string("\x01", 1)), "\\u0001");

  run::ResultRow row;
  row.spec.family = "fam\"ily";
  row.error = "bad \\ value\n";
  row.ok = false;
  const auto json = run::render_json({row});
  EXPECT_NE(json.find("\"fam\\\"ily"), std::string::npos);
  EXPECT_NE(json.find("bad \\\\ value\\n"), std::string::npos);
  // No raw quote or newline survives inside the emitted strings.
  EXPECT_EQ(json.find("fam\"ily"), std::string::npos);
}

TEST(Sinks, CsvQuotesCellsWithSeparators) {
  run::ResultRow row;
  row.spec.family = "fam,ily";
  const auto csv = run::render_csv({row});
  EXPECT_NE(csv.find("\"fam,ily"), std::string::npos);
}

TEST(Sinks, TimingColumnsAreOptIn) {
  run::ResultRow row;
  const auto plain = run::render_json({row});
  EXPECT_EQ(plain.find("build_ms"), std::string::npos);
  run::SinkOptions options;
  options.timing = true;
  const auto timed = run::render_json({row}, options);
  EXPECT_NE(timed.find("build_ms"), std::string::npos);
  EXPECT_NE(timed.find("verify_ms"), std::string::npos);
}

TEST(Sinks, ExtraFieldsAppendAfterSchema) {
  run::ResultRow row;
  run::SinkOptions options;
  options.extra = [](const run::ResultRow&) {
    return util::JsonObject{
        {"custom", util::JsonValue::str("va\"lue")}};
  };
  const auto json = run::render_json({row}, options);
  EXPECT_NE(json.find("\"custom\": \"va\\\"lue\""), std::string::npos);
  const auto csv = run::render_csv({row}, options);
  EXPECT_NE(csv.find("custom"), std::string::npos);
}

}  // namespace
