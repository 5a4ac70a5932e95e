// nas_served — long-running socket daemon serving one distance oracle.
//
// Where nas_oracle answers one batch and exits, nas_served binds a TCP port
// and answers the src/net line protocol until stopped:
//
//   Q <u> <v>   ->  "<u> <v> <d>"        (one line, nas_oracle byte format)
//   BATCH <n>   +   n "<u> <v>" lines -> n answer lines in request order
//   STATS       ->  one oracle+server stats JSON line
//   METRICS     ->  one metrics JSON line (batch-size/latency histograms)
//   QUIT        ->  "BYE", then the connection closes
//
//   # build from a generated graph and serve on an ephemeral port
//   ./nas_served --family er --n 2000 --eps 0.25 --port 0
//                --port-file port.txt
//
//   # warm from a snapshot, 8 BFS threads per batch, fixed port, 30s idle
//   ./nas_served --load oracle.naso --threads 8 --port 7979
//                --idle-timeout-ms 30000
//
// The daemon prints "listening on <host>:<port>" to stderr once ready (and
// writes the bare port number to --port-file, for scripts that asked for
// port 0).  SIGINT/SIGTERM stop it gracefully: the listen socket closes,
// in-flight batches finish and flush (bounded by --drain-timeout-ms), then
// the process exits 0.  A second signal exits immediately.
//
// Answer lines are byte-identical to nas_oracle for the same requests at
// every --threads/--cache-budget value (--threads is nas_oracle's
// --query-threads) — CI's serving gate replays a workload
// through bench/serve_latency and cmp's the transcript against the
// nas_oracle answers file.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/distance_oracle.hpp"
#include "net/server.hpp"
#include "run/oracle_source.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

using namespace nas;

namespace {

std::atomic<net::Server*> g_server{nullptr};

extern "C" void handle_stop_signal(int /*signum*/) {
  net::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_stop();  // async-signal-safe
}

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the self-pipe wakes the loop anyway
  if (::sigaction(SIGINT, &action, nullptr) != 0 ||
      ::sigaction(SIGTERM, &action, nullptr) != 0) {
    throw std::runtime_error("nas_served: cannot install signal handlers");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);

    // Oracle source: a snapshot, or a graph + schedule to build from (same
    // flags as nas_oracle).
    const std::string load_path = flags.str(
        "load", "",
        "load a serving snapshot (v1 or v2, detected from the file) instead "
        "of building");
    const run::ScenarioSpec build = run::oracle_build_flags(flags);

    // Out-of-range values are rejected, never wrapped (--port 70000 would
    // otherwise bind port 4464).
    const auto cache_budget = flags.integer_as<std::uint64_t>(
        "cache-budget", 64 << 20, "source-cache budget in bytes, 0 = off");
    const auto threads = flags.integer_as<unsigned>(
        "threads", 1,
        "BFS threads per batch (nas_oracle's --query-threads), 0 = all cores");

    // Daemon flags.
    const std::string listen =
        flags.str("listen", "127.0.0.1", "IPv4 address to bind");
    const auto port = flags.integer_as<std::uint16_t>(
        "port", 0, "TCP port, 0 = kernel-assigned ephemeral");
    const std::string port_file = flags.str(
        "port-file", "",
        "write the bound port number to this file once listening");
    const auto max_conns = flags.integer_as<std::size_t>(
        "max-conns", 256, "concurrent connections before \"ERR server busy\"");
    const auto idle_timeout_ms = flags.integer_as<std::uint64_t>(
        "idle-timeout-ms", 60000, "close connections idle this long, 0 = off");
    const auto max_batch = flags.integer_as<std::uint64_t>(
        "max-batch", 1 << 16, "largest accepted BATCH count");
    const auto queue_depth = flags.integer_as<std::size_t>(
        "queue-depth", 64, "bridge jobs buffered before backpressure");
    const auto drain_timeout_ms = flags.integer_as<std::uint64_t>(
        "drain-timeout-ms", 5000,
        "graceful-shutdown bound for flushing in-flight batches");
    const std::string stats_path = flags.str(
        "stats-json", "",
        "write final oracle + server stats JSON here on clean shutdown");

    if (flags.handle_help(
            "nas_served — serve a distance oracle over a TCP line protocol")) {
      return 0;
    }
    flags.reject_unknown();

    apps::SpannerDistanceOracle oracle = run::open_oracle(
        load_path, build, {.cache_budget_bytes = cache_budget});
    std::cerr << "oracle: " << oracle.summary() << ", guarantee d_H <= "
              << oracle.multiplicative() << "*d_G + " << oracle.additive()
              << ", cache capacity " << oracle.cache_capacity()
              << " sources\n";

    net::ServerOptions server_options;
    server_options.listen = listen;
    server_options.port = port;
    server_options.max_conns = max_conns;
    server_options.idle_timeout_ms = idle_timeout_ms;
    server_options.max_batch = max_batch;
    server_options.queue_depth = queue_depth;
    server_options.serve_threads = threads;
    server_options.drain_timeout_ms = drain_timeout_ms;

    net::Server server(oracle, server_options);
    g_server.store(&server, std::memory_order_release);
    install_stop_handlers();

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) {
        throw std::runtime_error("cannot open port file " + port_file);
      }
      out << server.port() << "\n";
    }
    std::cerr << "listening on " << listen << ":" << server.port() << "\n";

    server.run();
    g_server.store(nullptr, std::memory_order_release);

    const net::ServerTotals& totals = server.totals();
    std::cerr << "served " << totals.requests << " requests ("
              << totals.batches << " batches) over "
              << totals.connections_accepted << " connections ("
              << totals.connections_rejected << " rejected, "
              << totals.idle_closed << " idle-closed, "
              << totals.protocol_errors << " protocol errors)\n";

    if (!stats_path.empty()) {
      util::JsonObject fields =
          apps::oracle_stats_fields(oracle, totals.oracle);
      net::append_totals_fields(&fields, totals);
      std::ofstream out(stats_path);
      if (!out) {
        throw std::runtime_error("cannot open stats file " + stats_path);
      }
      out << util::render_json_object(fields) << "\n";
      std::cerr << "wrote stats to " << stats_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_served: error: " << e.what() << "\n";
    return 2;
  }
}
