// nas_perfbench — the in-process half of the repository benchmark.
//
// perfbench/run.py drives this binary and the nas_served daemon; it owns the
// workloads, the percentile rule and the result line.  This program only
// calls the library's public functions and speaks the daemon's wire
// protocol, and prints one JSON object on stdout per invocation:
//
//   build  --seed S --reps R --snapshot F [--spans F]
//       R times: graph::make_workload(er_dense, 16000) -> core::build_spanner
//       -> verify::verify_stretch_sampled (64 sources, 1 thread) -> a v2
//       snapshot written with SpannerDistanceOracle::save_file.  With
//       --spans, also times core::run_algorithm1 on the phase-0 inputs.
//   zipf   --port P --n N --seed S --seconds T --snapshot F [--spans F]
//       open loop: one "Q u v" line per user at kZipfRate q/s, round robin
//       over kZipfConns connections from this single thread.
//   batch  --port P --n N --seed S --seconds T --snapshot F [--spans F]
//       closed loop: kBatchCallers callers, each waiting on one
//       "BATCH kBatchSize" of uniform pairs before sending the next.
//   selftest
//       checks the due-time arithmetic and the answer-line parser.
//
// After the traffic, zipf/batch replay the exact same requests through an
// in-process SpannerDistanceOracle::load_file(...).batch_query with the
// daemon's cache budget: every served answer must equal the replayed one
// and the two digests must agree.  The replay also yields the oracle layer's
// counters, and a fixed sample of graph::BfsScratch::run passes over the
// served CSR gives the BFS cost per source.
//
// The daemon is reached only through its wire protocol (Q / BATCH), so the
// benchmark does not depend on how nas_served organises its serving stack.
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "core/popular.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/generators.hpp"
#include "net/posix_io.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "verify/stretch.hpp"

using namespace nas;

namespace {

// ---- workload constants (shared with perfbench/README.md) ------------------

constexpr const char* kFamily = "er_dense";
constexpr graph::Vertex kBuildN = 16000;
constexpr double kEps = 0.25;
constexpr int kKappa = 3;
constexpr double kRho = 0.4;
constexpr std::uint32_t kVerifySources = 64;
constexpr std::uint64_t kCacheBudget = 64ull << 20;  // nas_served's default
constexpr std::uint32_t kBfsSample = 64;
constexpr double kWarmupS = 2;  // unmeasured traffic before the window opens
// serve_zipf_interactive: the offered rate is a workload constant, not
// scaled to the machine.
constexpr std::uint64_t kZipfRate = 1000;
constexpr std::size_t kZipfConns = 4;
constexpr double kZipfTheta = 0.99;
constexpr std::uint64_t kZipfPrefix = 20000;  // replayed Qs behind the oracle counters
// serve_uniform_batch.
constexpr std::size_t kBatchCallers = 4;
constexpr std::uint64_t kBatchSize = 512;
constexpr std::uint64_t kBatchPrefix = 48;  // replayed batches behind the oracle counters
constexpr std::uint64_t kMinBatches = 120;  // batches the window must hold (p90 support)
constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
// Replay chunk for answer checks beyond the counted prefix: batch_query holds
// one fresh 4n-byte vector per distinct source, so this bounds its memory.
constexpr std::uint64_t kCheckChunk = 1024;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder.  Ids are 1-based; 0 means "no parent" (run.py
/// attaches such spans to its own enclosing span).  Written out once, when
/// the subcommand ends.  When disabled every call is a no-op returning 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::int64_t request = -1) {
    return add(name, parent, now_ns(), 0, request);
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end = now_ns();
  }
  std::uint32_t add(const char* name, std::uint32_t parent, std::int64_t start,
                    std::int64_t end, std::int64_t request = -1) {
    if (!enabled_) return 0;
    spans_.push_back({name, parent, start, end, request});
    return static_cast<std::uint32_t>(spans_.size());
  }

  /// JSON lines: {"id","parent","name","start_ns","end_ns","req"}; ids are
  /// prefixed so spans of several processes can share one file.
  void write(const std::string& path, const std::string& prefix) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": \"" << prefix << i + 1 << "\", \"parent\": ";
      if (s.parent == 0) {
        out << "null";
      } else {
        out << "\"" << prefix << s.parent << "\"";
      }
      out << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start
          << ", \"end_ns\": " << s.end << ", \"req\": ";
      if (s.request < 0) {
        out << "null";
      } else {
        out << s.request;
      }
      out << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
    std::int64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ---- result line -----------------------------------------------------------

/// Builds the one JSON object a subcommand prints, on util::JsonObject.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    return add(key, util::JsonValue::literal(format(v)));
  }
  JsonOut& u64(const std::string& key, std::uint64_t v) {
    return add(key, util::JsonValue::number(v));
  }
  JsonOut& boolean(const std::string& key, bool v) {
    return add(key, util::JsonValue::boolean(v));
  }
  JsonOut& hex(const std::string& key, std::uint64_t v) {
    return add(key, util::JsonValue::hex64(v));
  }
  JsonOut& list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      text += (i ? "," : "") + format(values[i]);
    }
    return add(key, util::JsonValue::literal(text + "]"));
  }
  [[nodiscard]] std::string done() const {
    return util::render_json_object(fields_);
  }

 private:
  static std::string format(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }
  JsonOut& add(const std::string& key, util::JsonValue value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  util::JsonObject fields_;
};

// ---- helpers covered by `selftest` -----------------------------------------

/// Offset of request `i` from the start of an open loop at `rate` requests
/// per second.  Integer nanoseconds from the index, never accumulated, so a
/// long run does not drift: request rate*T is due at exactly T seconds.
std::int64_t due_offset_ns(std::uint64_t i, std::uint64_t rate) {
  return static_cast<std::int64_t>(i * 1'000'000'000ull / rate);
}

/// Parses one "<u> <v> <d>" answer line; nullopt for anything else (an ERR
/// line, a truncated line).  "inf" is graph::kInfDist.
struct Answer {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
  std::uint32_t d = 0;
};
std::optional<Answer> parse_answer(std::string_view line) {
  Answer a;
  std::uint64_t fields[3] = {0, 0, 0};
  std::size_t pos = 0;
  for (int f = 0; f < 3; ++f) {
    if (f > 0) {
      if (pos >= line.size() || line[pos] != ' ') return std::nullopt;
      ++pos;
    }
    if (f == 2 && line.substr(pos) == "inf") {
      fields[2] = graph::kInfDist;
      pos = line.size();
      break;
    }
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9' &&
           pos - start < 10) {
      fields[f] = fields[f] * 10 + static_cast<std::uint64_t>(line[pos] - '0');
      ++pos;
    }
    if (pos == start || fields[f] > 0xffffffffull) return std::nullopt;
  }
  if (pos != line.size()) return std::nullopt;
  a.u = static_cast<graph::Vertex>(fields[0]);
  a.v = static_cast<graph::Vertex>(fields[1]);
  a.d = static_cast<std::uint32_t>(fields[2]);
  return a;
}

int cmd_selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };
  check(due_offset_ns(0, 3000) == 0, "first request due at once");
  check(due_offset_ns(3000, 3000) == 1'000'000'000, "rate*1s due at 1s");
  check(due_offset_ns(66000, 3000) == 22'000'000'000, "no drift at 22s");
  check(due_offset_ns(1, 3000) == 333'333, "sub-interval truncates");
  check(due_offset_ns(2, 3000) == 666'666, "index-based, not accumulated");
  bool monotone = true;
  for (std::uint64_t i = 1; i < 100000; ++i) {
    monotone = monotone && due_offset_ns(i, 2999) > due_offset_ns(i - 1, 2999);
  }
  check(monotone, "due times strictly increase");
  check(due_offset_ns(1'000'000'000, 1000) == 1'000'000'000'000'000,
        "no overflow over a billion requests");

  const auto a = parse_answer("12 34 5");
  check(a && a->u == 12 && a->v == 34 && a->d == 5, "plain answer");
  const auto b = parse_answer("7 8 inf");
  check(b && b->d == graph::kInfDist, "inf answer");
  check(!parse_answer("ERR bad vertex"), "ERR line rejected");
  check(!parse_answer("1 2"), "two fields rejected");
  check(!parse_answer("1 2 3 "), "trailing space rejected");
  check(!parse_answer("1 2 99999999999"), "overflow rejected");
  std::cout << "{\"selftest_failures\": " << failures << "}\n";
  return failures == 0 ? 0 : 1;
}

// ---- build -----------------------------------------------------------------

struct BuildCounts {
  std::uint64_t rounds = 0, messages = 0, spanner_edges = 0;
  std::uint64_t alg1_rounds = 0, alg1_messages = 0;
  std::uint64_t ruling_rounds = 0, super_rounds = 0, inter_rounds = 0;
  bool operator==(const BuildCounts&) const = default;
};

BuildCounts count_ledger(const core::SpannerResult& r) {
  BuildCounts c;
  c.rounds = r.ledger.rounds();
  c.messages = r.ledger.messages();
  c.spanner_edges = r.spanner.num_edges();
  for (const auto& s : r.ledger.sections()) {
    const auto has = [&](const char* kind) {
      return s.label.find(kind) != std::string::npos;
    };
    if (has("algorithm1")) {
      c.alg1_rounds += s.rounds;
      c.alg1_messages += s.messages;
    } else if (has("ruling set")) {
      c.ruling_rounds += s.rounds;
    } else if (has("superclustering")) {
      c.super_rounds += s.rounds;
    } else if (has("interconnection")) {
      c.inter_rounds += s.rounds;
    }
  }
  return c;
}

int cmd_build(const util::Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed", 0, "workload seed"));
  const auto reps = flags.integer("reps", 0, "builds to run");
  const std::string snapshot = flags.str("snapshot", "", "v2 snapshot output path");
  const std::string spans_path = flags.str("spans", "", "span file (tracing on)");
  flags.reject_unknown();
  if (snapshot.empty() || reps < 1) {
    throw std::invalid_argument("build needs --snapshot and --reps >= 1");
  }
  Tracer tracer(!spans_path.empty());

  std::vector<double> generate_s, build_s, core_s, verify_s, save_s;
  std::optional<BuildCounts> first;
  bool deterministic = true, verify_ok = true;
  std::uint64_t n = 0, m = 0, pairs_checked = 0, max_additive = 0;
  double alg1_phase0_s = 0, alg1_phase0_accept_ratio = 0;
  std::uint64_t probe_u = 0, probe_v = 0, probe_d = 0;

  for (std::int64_t rep = 0; rep < reps; ++rep) {
    const SpanScope rep_span(tracer, "build.rep");
    std::int64_t t = now_ns();
    graph::Graph g;
    {
      const SpanScope s(tracer, "graph.make_workload", rep_span.id());
      g = graph::make_workload(kFamily, kBuildN, seed);
    }
    generate_s.push_back(seconds_between(t, now_ns()));
    n = g.num_vertices();
    m = g.num_edges();
    const auto params = core::Params::practical(g.num_vertices(), kEps, kKappa, kRho);

    const std::int64_t t0 = now_ns();
    const SpanScope build_span(tracer, "build.to_snapshot", rep_span.id());
    std::optional<core::SpannerResult> result;
    {
      const SpanScope s(tracer, "core.build_spanner", build_span.id());
      result.emplace(core::build_spanner(g, params, {.validate = false}));
    }
    const std::int64_t t1 = now_ns();
    verify::StretchReport report;
    {
      const SpanScope s(tracer, "verify.verify_stretch_sampled", build_span.id());
      report = verify::verify_stretch_sampled(
          g, result->spanner, params.stretch_multiplicative(),
          params.stretch_additive(), kVerifySources, seed, 1);
    }
    const std::int64_t t2 = now_ns();
    const BuildCounts counts = count_ledger(*result);
    apps::SpannerDistanceOracle oracle(std::move(*result));
    {
      const SpanScope s(tracer, "apps.save_file", build_span.id());
      oracle.save_file(snapshot, apps::SnapshotFormat::kV2);
    }
    const std::int64_t t3 = now_ns();
    tracer.end(build_span.id());

    core_s.push_back(seconds_between(t0, t1));
    verify_s.push_back(seconds_between(t1, t2));
    save_s.push_back(seconds_between(t2, t3));
    build_s.push_back(seconds_between(t0, t3));
    verify_ok = verify_ok && report.bound_ok && report.connectivity_ok;
    pairs_checked = report.pairs_checked;
    max_additive = report.max_additive;
    if (!first) {
      first = counts;
    } else {
      deterministic = deterministic && counts == *first;
    }

    // Untimed: a probe pair the caller uses to recognise the daemon's first
    // correct reply.
    probe_u = util::mix64(seed) % n;
    probe_v = util::mix64(seed + 1) % n;
    probe_d = oracle.query(static_cast<graph::Vertex>(probe_u),
                           static_cast<graph::Vertex>(probe_v));

    if (rep == 0 && tracer.enabled()) {
      // Phase-0 Algorithm 1 inputs: every vertex is its own cluster center.
      const auto& sched = params.phase(0);
      std::uint64_t cap = sched.deg;
      if (sched.concluding) cap = std::max<std::uint64_t>(cap, n);
      std::vector<graph::Vertex> sources(n);
      for (graph::Vertex v = 0; v < n; ++v) sources[v] = v;
      const std::int64_t a0 = now_ns();
      core::Algorithm1Result alg1;
      {
        const SpanScope s(tracer, "core.run_algorithm1.phase0", rep_span.id());
        alg1 = core::run_algorithm1(g, sources, sched.delta, cap);
      }
      alg1_phase0_s = seconds_between(a0, now_ns());
      std::uint64_t accepted = 0;
      for (const auto& list : alg1.knowledge) accepted += list.size();
      alg1_phase0_accept_ratio =
          alg1.messages ? static_cast<double>(accepted) /
                              static_cast<double>(alg1.messages)
                        : 0.0;
    }
  }
  tracer.write(spans_path, "b");

  const BuildCounts& c = *first;
  JsonOut out;
  out.u64("n", n).u64("m", m);
  out.list("generate_s", generate_s).list("build_s", build_s);
  out.list("core_s", core_s).list("verify_s", verify_s).list("save_s", save_s);
  out.boolean("deterministic", deterministic).boolean("verify_ok", verify_ok);
  out.u64("rounds", c.rounds).u64("messages", c.messages);
  out.u64("spanner_edges", c.spanner_edges);
  out.num("edges_over_m", static_cast<double>(c.spanner_edges) / static_cast<double>(m));
  out.u64("alg1_rounds", c.alg1_rounds).u64("alg1_messages", c.alg1_messages);
  out.u64("ruling_rounds", c.ruling_rounds).u64("super_rounds", c.super_rounds);
  out.u64("inter_rounds", c.inter_rounds);
  out.num("alg1_phase0_s", alg1_phase0_s);
  out.num("alg1_phase0_accept_ratio", alg1_phase0_accept_ratio);
  out.u64("pairs_checked", pairs_checked).u64("max_additive", max_additive);
  out.u64("snapshot_bytes", std::filesystem::file_size(snapshot));
  out.list("probe", {static_cast<double>(probe_u), static_cast<double>(probe_v),
                     static_cast<double>(probe_d)});
  std::cout << out.done() << "\n";
  return 0;
}

// ---- traffic ---------------------------------------------------------------

/// One client connection driven from the single poll loop: bytes waiting to
/// be written, bytes read but not yet framed, and the request ids whose
/// answers are still due on this connection, oldest first.
struct Conn {
  net::UniqueFd fd;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::deque<std::uint64_t> waiting;
  bool dead = false;
};

/// Per-request record (a request is one Q, or one BATCH for the closed loop).
struct Sent {
  std::int64_t due = 0;   ///< when it was due (open loop) / caller ready
  std::int64_t send = 0;  ///< when its last byte was handed to the kernel
  std::int64_t recv = 0;  ///< when its (last) answer line arrived; 0 = never
  bool failed = false;
};

std::vector<Conn> connect_all(std::uint16_t port, std::size_t count) {
  std::vector<Conn> conns(count);
  for (auto& c : conns) {
    c.fd = net::connect_blocking("127.0.0.1", port);
    net::set_nonblocking(c.fd.get());
  }
  return conns;
}

/// Writes what is buffered; returns false once the connection is broken.
bool flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const net::IoResult r =
        net::write_some(c.fd.get(), c.out.data() + c.out_pos, c.out.size() - c.out_pos);
    if (r.status == net::IoStatus::kWouldBlock) return true;
    if (r.status != net::IoStatus::kOk) return false;
    c.out_pos += r.bytes;
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

/// Waits (ppoll, nanosecond timeout) for readable or, when output is
/// pending, writable connections; returns the ready mask per connection.
std::vector<short> wait_ready(std::vector<Conn>& conns, std::int64_t timeout_ns) {
  std::vector<pollfd> fds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    fds[i].fd = conns[i].dead ? -1 : conns[i].fd.get();
    fds[i].events = static_cast<short>(
        POLLIN | (conns[i].out_pos < conns[i].out.size() ? POLLOUT : 0));
  }
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  std::vector<short> ready(conns.size(), 0);
  if (rc <= 0) return ready;  // timeout or EINTR: the caller loops anyway
  for (std::size_t i = 0; i < conns.size(); ++i) ready[i] = fds[i].revents;
  return ready;
}

/// Reads everything available and hands each complete line to `on_line`.
/// Returns false once the connection hit EOF or an error.
template <typename OnLine>
bool drain(Conn& c, OnLine&& on_line) {
  char buf[65536];
  bool alive = true;
  for (;;) {
    const net::IoResult r = net::read_some(c.fd.get(), buf, sizeof buf);
    if (r.status == net::IoStatus::kWouldBlock) break;
    if (r.status != net::IoStatus::kOk) {
      alive = false;
      break;
    }
    c.in.append(buf, r.bytes);
  }
  const std::int64_t t = now_ns();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t nl = c.in.find('\n', pos);
    if (nl == std::string::npos) break;
    on_line(std::string_view(c.in).substr(pos, nl - pos), t);
    pos = nl + 1;
  }
  c.in.erase(0, pos);
  return alive;
}

/// In-process replay state shared by both traffic shapes.
/// `oracle` mirrors the daemon (same budget) for the counted prefix;
/// `checker` has no cache and answers the rest, since answers depend on
/// neither the cache nor the thread count and a cacheless replay skips the
/// insert-then-evict work.
struct Replay {
  apps::SpannerDistanceOracle oracle;
  apps::SpannerDistanceOracle checker;
  double load_s = 0;
};

Replay load_replay(const std::string& snapshot, Tracer& tracer) {
  // The traffic is over, so the replay may use every CPU: run.py pins this
  // process to one CPU for the traffic, which would serialise the
  // four-thread answer check.
  cpu_set_t all;
  CPU_ZERO(&all);
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < cpus && c < CPU_SETSIZE; ++c) CPU_SET(static_cast<int>(c), &all);
  ::sched_setaffinity(0, sizeof all, &all);  // best effort: a no-op if denied

  const SpanScope s(tracer, "apps.load_file");
  const std::int64_t t = now_ns();
  auto oracle = apps::SpannerDistanceOracle::load_file(
      snapshot, {.cache_budget_bytes = kCacheBudget});
  const double load_s = seconds_between(t, now_ns());
  auto checker =
      apps::SpannerDistanceOracle::load_file(snapshot, {.cache_budget_bytes = 0});
  return {std::move(oracle), std::move(checker), load_s};
}

/// Oracle-layer totals over the replayed prefix.
struct OracleTotals {
  apps::BatchStats stats;
  double batch_query_s = 0;
  std::vector<double> batch_ms;
  void add(const apps::BatchStats& s, std::int64_t t0, std::int64_t t1) {
    stats.queries += s.queries;
    stats.distinct_sources += s.distinct_sources;
    stats.cache_hits += s.cache_hits;
    stats.bfs_passes += s.bfs_passes;
    stats.evictions += s.evictions;
    batch_query_s += seconds_between(t0, t1);
    batch_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
};

/// Per-source BFS cost on the served CSR over a fixed, seeded source sample.
void bfs_sample(const apps::SpannerDistanceOracle& oracle, std::uint64_t seed,
                Tracer& tracer, JsonOut& out) {
  const graph::Csr& csr = oracle.csr();
  graph::BfsScratch scratch;
  std::vector<graph::Vertex> sources(kBfsSample);
  for (std::uint32_t i = 0; i < kBfsSample; ++i) {
    sources[i] = static_cast<graph::Vertex>(util::mix64(seed * 7919 + i) %
                                            csr.num_vertices());
  }
  scratch.run(csr, sources[0]);  // size the arena outside the timed loop
  const SpanScope parent(tracer, "graph.bfs_sample");
  std::uint64_t edges = 0;
  const std::int64_t t = now_ns();
  for (const graph::Vertex s : sources) {
    graph::BfsKernelStats stats;  // run() overwrites, so sum per source
    const std::int64_t t0 = now_ns();
    scratch.run(csr, s, graph::BfsKernel::kAuto, &stats);
    tracer.add("graph.BfsScratch.run", parent.id(), t0, now_ns());
    edges += stats.edges_inspected;
  }
  const double us = static_cast<double>(now_ns() - t) * 1e-3 / kBfsSample;
  out.num("bfs_us_per_source", us);
  out.num("bfs_edges_per_source", static_cast<double>(edges) / kBfsSample);
}

void emit_oracle(const OracleTotals& o, JsonOut& out) {
  out.num("oracle_batch_query_s", o.batch_query_s);
  out.list("oracle_batch_ms", o.batch_ms);
  out.u64("oracle_distinct_sources", o.stats.distinct_sources);
  out.u64("oracle_cache_hits", o.stats.cache_hits);
  out.u64("oracle_bfs_passes", o.stats.bfs_passes);
  out.u64("oracle_evictions", o.stats.evictions);
}

/// Fields common to both traffic shapes: per-request timing, failures and
/// the answer check.
void emit_traffic(const std::vector<Sent>& sent, std::int64_t window_start,
                  std::int64_t window_end, std::uint64_t queries_per_request,
                  std::uint64_t backlog_max,
                  const std::vector<std::uint64_t>& backlog_per_s,
                  std::uint64_t wrong, std::uint64_t err_lines,
                  std::uint64_t digest_served, std::uint64_t digest_replay,
                  JsonOut& out) {
  std::vector<double> lat_ms, lag_ms;
  std::uint64_t failed = 0, answered = 0;
  std::int64_t first_send = window_end, last_recv = window_start;
  for (const Sent& s : sent) {
    if (s.failed || s.recv == 0) ++failed;
    if (s.due < window_start || s.due >= window_end) continue;
    if (!s.failed && s.recv != 0) {
      ++answered;
      first_send = std::min(first_send, s.send);
      last_recv = std::max(last_recv, s.recv);
    }
    // A failed request misses every latency limit; -1 marks it for run.py.
    lat_ms.push_back(s.failed || s.recv == 0
                         ? -1.0
                         : static_cast<double>(s.recv - s.due) * 1e-6);
    lag_ms.push_back(static_cast<double>(std::max<std::int64_t>(s.send - s.due, 0)) * 1e-6);
  }
  std::vector<double> backlog(backlog_per_s.begin(), backlog_per_s.end());
  out.u64("attempted", sent.size()).u64("failed", failed);
  out.u64("wrong_answers", wrong).u64("err_lines", err_lines);
  out.hex("digest_served", digest_served).hex("digest_replay", digest_replay);
  // Queries answered for the requests of the measured window, over the
  // time from the first of them leaving to the last answer arriving.
  out.num("throughput_qps",
          last_recv > first_send
              ? static_cast<double>(answered * queries_per_request) /
                    seconds_between(first_send, last_recv)
              : 0.0);
  out.u64("backlog_max", backlog_max);
  out.list("backlog_per_s", backlog);
  out.list("lat_ms", lat_ms).list("lag_ms", lag_ms);
}

/// The flags both traffic shapes take; every one is required.
struct TrafficArgs {
  std::uint16_t port = 0;
  graph::Vertex n = 0;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::string snapshot;
  std::string spans_path;
};

TrafficArgs traffic_args(const util::Flags& flags) {
  TrafficArgs a;
  a.port = static_cast<std::uint16_t>(flags.integer("port", 0, "daemon port"));
  a.n = static_cast<graph::Vertex>(flags.integer("n", 0, "vertex count"));
  a.seed = static_cast<std::uint64_t>(flags.integer("seed", 0, "workload seed"));
  a.seconds = flags.real("seconds", 0, "measured seconds");
  a.snapshot = flags.str("snapshot", "", "snapshot the daemon serves");
  a.spans_path = flags.str("spans", "", "span file (tracing on)");
  flags.reject_unknown();
  if (a.port == 0 || a.n == 0 || a.seconds <= 0 || a.snapshot.empty()) {
    throw std::invalid_argument("traffic needs --port, --n, --seed, --seconds, --snapshot");
  }
  return a;
}

// ---- open loop: single Q lines, Zipf sources ---------------------------------

int cmd_zipf(const util::Flags& flags) {
  const TrafficArgs args = traffic_args(flags);
  const graph::Vertex n = args.n;
  const std::uint64_t seed = args.seed;
  const std::uint64_t rate = kZipfRate;
  Tracer tracer(!args.spans_path.empty());
  const auto total =
      static_cast<std::uint64_t>(static_cast<double>(rate) * (kWarmupS + args.seconds));
  const std::vector<apps::Query> queries = apps::make_query_workload(
      n, {.dist = "zipf", .queries = total, .seed = seed, .zipf_theta = kZipfTheta});

  std::vector<Conn> conns = connect_all(args.port, kZipfConns);
  std::vector<Sent> sent(total);
  std::vector<std::uint32_t> served(total, graph::kInfDist);
  std::uint64_t wrong = 0, err_lines = 0, outstanding = 0, backlog_max = 0;
  std::vector<std::uint64_t> backlog_per_s;

  const std::uint32_t traffic = tracer.begin("client.open_loop", 0);
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t window_start = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t window_end = t0 + due_offset_ns(total, rate);
  std::uint64_t next = 0;
  for (;;) {
    std::int64_t now = now_ns();
    for (; next < total && t0 + due_offset_ns(next, rate) <= now; ++next) {
      Conn& c = conns[next % kZipfConns];
      sent[next].due = t0 + due_offset_ns(next, rate);
      if (c.dead) {
        sent[next].failed = true;
        continue;
      }
      c.out += "Q " + std::to_string(queries[next].u) + " " +
               std::to_string(queries[next].v) + "\n";
      c.waiting.push_back(next);
      ++outstanding;
    }
    for (auto& c : conns) {
      if (c.dead || c.out.empty()) continue;
      if (!flush(c)) c.dead = true;
    }
    now = now_ns();
    for (std::uint64_t i = next; i > 0 && sent[i - 1].send == 0 && sent[i - 1].due != 0; --i) {
      sent[i - 1].send = now;
    }
    if (now >= window_start && now < window_end) {
      backlog_max = std::max(backlog_max, outstanding);
      const auto second = static_cast<std::size_t>((now - window_start) / 1'000'000'000);
      if (backlog_per_s.size() <= second) backlog_per_s.resize(second + 1, 0);
      backlog_per_s[second] = std::max(backlog_per_s[second], outstanding);
    }
    if (next == total && outstanding == 0) break;
    if (next == total && now > window_end + kDrainTimeoutNs) break;
    // Spin (zero timeout) instead of sleeping until the next due time: a
    // sleeping client adds its own wake-up latency to every reply and
    // oversleeps the schedule.  run.py pins this process to a CPU of its own.
    const std::vector<short> ready = wait_ready(conns, 0);
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      if (c.dead || ready[k] == 0) continue;
      if ((ready[k] & POLLOUT) && !flush(c)) c.dead = true;
      const bool alive = drain(c, [&](std::string_view line, std::int64_t t) {
        if (c.waiting.empty()) {
          ++err_lines;  // an unsolicited line: framing is broken
          return;
        }
        const std::uint64_t id = c.waiting.front();
        c.waiting.pop_front();
        --outstanding;
        Sent& s = sent[id];
        s.recv = t;
        tracer.add("net.Q", traffic, s.send, t, static_cast<std::int64_t>(id));
        const auto answer = parse_answer(line);
        if (!answer) {
          ++err_lines;
          s.failed = true;
        } else if (answer->u != queries[id].u || answer->v != queries[id].v) {
          ++wrong;
          s.failed = true;
        } else {
          served[id] = answer->d;
        }
      });
      if (!alive) c.dead = true;
    }
    for (auto& c : conns) {
      if (!c.dead) continue;
      for (const std::uint64_t id : c.waiting) sent[id].failed = true;
      outstanding -= c.waiting.size();
      c.waiting.clear();
    }
  }
  for (auto& c : conns) {
    for (const std::uint64_t id : c.waiting) sent[id].failed = true;
  }
  tracer.end(traffic);
  conns.clear();

  // Replay: the same Q stream, one single-query batch each, in due order.
  Replay replay = load_replay(args.snapshot, tracer);
  OracleTotals totals;
  std::vector<std::uint32_t> expected(total);
  {
    // When tracing, the counted prefix goes one query at a time, as the
    // daemon sees it; the rest only checks answers, in chunks on four threads.
    const SpanScope s(tracer, "oracle.replay");
    const std::uint64_t counted = tracer.enabled() ? std::min(kZipfPrefix, total) : 0;
    for (std::uint64_t i = 0; i < counted; ++i) {
      apps::BatchStats stats;
      const std::int64_t a = now_ns();
      expected[i] = replay.oracle.batch_query(std::span(&queries[i], 1), 1, &stats)[0];
      const std::int64_t b = now_ns();
      totals.add(stats, a, b);
      tracer.add("apps.batch_query", s.id(), a, b, static_cast<std::int64_t>(i));
    }
    for (std::uint64_t i = counted; i < total; i += kCheckChunk) {
      const std::uint64_t len = std::min<std::uint64_t>(kCheckChunk, total - i);
      const auto answers = replay.checker.batch_query(
          std::span(queries).subspan(i, len), 4);
      std::copy(answers.begin(), answers.end(), expected.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (std::uint64_t i = 0; i < total; ++i) {
    if (!sent[i].failed && sent[i].recv != 0 && served[i] != expected[i]) {
      ++wrong;
      sent[i].failed = true;
    }
  }

  JsonOut out;
  emit_traffic(sent, window_start, window_end, 1, backlog_max, backlog_per_s,
               wrong, err_lines, apps::digest_answers(served),
               apps::digest_answers(expected), out);
  emit_oracle(totals, out);
  out.num("snapshot_load_s", replay.load_s);
  out.u64("spanner_edges", replay.oracle.spanner_edges());
  bfs_sample(replay.oracle, seed, tracer, out);
  tracer.write(args.spans_path, "z");
  std::cout << out.done() << "\n";
  return 0;
}

// ---- closed loop: BATCH callers, uniform pairs -----------------------------

std::vector<apps::Query> batch_queries(graph::Vertex n, std::uint64_t seed,
                                       std::uint64_t index, std::uint64_t size) {
  return apps::make_query_workload(
      n, {.dist = "uniform", .queries = size, .seed = util::mix64(seed ^ (index << 20))});
}

int cmd_batch(const util::Flags& flags) {
  const TrafficArgs args = traffic_args(flags);
  const graph::Vertex n = args.n;
  const std::uint64_t seed = args.seed;
  const std::size_t callers = kBatchCallers;
  const std::uint64_t size = kBatchSize;
  Tracer tracer(!args.spans_path.empty());

  std::vector<Conn> conns = connect_all(args.port, callers);
  std::vector<Sent> sent;                       // one per batch, by index
  std::vector<std::vector<std::uint32_t>> served;  // answers per batch
  std::vector<std::int64_t> idle_since(callers, 0);
  std::vector<std::uint64_t> lines_left(callers, 0);
  std::uint64_t wrong = 0, err_lines = 0, outstanding = 0, backlog_max = 0;
  std::vector<std::uint64_t> backlog_per_s;
  std::vector<std::vector<apps::Query>> issued;

  const std::uint32_t traffic = tracer.begin("client.closed_loop", 0);
  const std::int64_t t0 = now_ns();
  const std::int64_t window_start = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  // The window lasts --seconds, and longer (up to three times that) until
  // kMinBatches were issued in it: a slow host must not leave too few
  // samples for the reported percentile.
  const std::int64_t planned_end = window_start + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t latest_end =
      window_start + static_cast<std::int64_t>(3 * args.seconds * 1e9);
  std::int64_t window_end = latest_end;
  bool open = true;
  std::uint64_t in_window = 0;
  std::fill(idle_since.begin(), idle_since.end(), t0);
  for (;;) {
    std::int64_t now = now_ns();
    if (open && now >= planned_end && (in_window >= kMinBatches || now >= latest_end)) {
      open = false;
      window_end = now;
    }
    for (std::size_t k = 0; k < callers; ++k) {
      Conn& c = conns[k];
      if (c.dead || !c.waiting.empty() || !open) continue;
      if (idle_since[k] >= window_start) ++in_window;
      const std::uint64_t index = sent.size();
      issued.push_back(batch_queries(n, seed, index, size));
      std::string text = "BATCH " + std::to_string(size) + "\n";
      for (const auto& q : issued.back()) {
        text += std::to_string(q.u) + " " + std::to_string(q.v) + "\n";
      }
      c.out += text;
      sent.push_back({.due = idle_since[k]});
      served.emplace_back();
      served.back().reserve(size);
      c.waiting.push_back(index);
      lines_left[k] = size;
      ++outstanding;
      if (!flush(c)) c.dead = true;
      sent.back().send = now_ns();
    }
    now = now_ns();
    if (now >= window_start && open) {
      backlog_max = std::max(backlog_max, outstanding);
      const auto second = static_cast<std::size_t>((now - window_start) / 1'000'000'000);
      if (backlog_per_s.size() <= second) backlog_per_s.resize(second + 1, 0);
      backlog_per_s[second] = std::max(backlog_per_s[second], outstanding);
    }
    if (!open && outstanding == 0) break;
    if (!open && now > window_end + kDrainTimeoutNs) break;
    const std::int64_t wait =
        open && now < planned_end ? planned_end - now : 100'000'000;
    const std::vector<short> ready = wait_ready(conns, wait);
    for (std::size_t k = 0; k < callers; ++k) {
      Conn& c = conns[k];
      if (c.dead || ready[k] == 0) continue;
      if ((ready[k] & POLLOUT) && !flush(c)) c.dead = true;
      const bool alive = drain(c, [&](std::string_view line, std::int64_t t) {
        if (c.waiting.empty()) {
          ++err_lines;
          return;
        }
        const std::uint64_t id = c.waiting.front();
        const auto answer = parse_answer(line);
        const apps::Query& q = issued[id][served[id].size()];
        if (!answer) {
          ++err_lines;
          sent[id].failed = true;
          served[id].push_back(graph::kInfDist);
        } else {
          if (answer->u != q.u || answer->v != q.v) {
            ++wrong;
            sent[id].failed = true;
          }
          served[id].push_back(answer->d);
        }
        if (--lines_left[k] == 0) {
          c.waiting.pop_front();
          --outstanding;
          sent[id].recv = t;
          idle_since[k] = t;
          tracer.add("net.BATCH", traffic, sent[id].send, t, static_cast<std::int64_t>(id));
        }
      });
      if (!alive) c.dead = true;
    }
    for (auto& c : conns) {
      if (!c.dead) continue;
      for (const std::uint64_t id : c.waiting) sent[id].failed = true;
      outstanding -= c.waiting.size();
      c.waiting.clear();
    }
  }
  for (auto& c : conns) {
    for (const std::uint64_t id : c.waiting) sent[id].failed = true;
  }
  tracer.end(traffic);
  conns.clear();

  // Replay in batch-index order.  When tracing, the counted prefix runs on
  // one thread, like the daemon's worker; the rest only checks answers, on
  // four threads.
  Replay replay = load_replay(args.snapshot, tracer);
  OracleTotals totals;
  std::vector<std::uint32_t> served_all, expected_all;
  {
    const SpanScope s(tracer, "oracle.replay");
    for (std::uint64_t id = 0; id < sent.size(); ++id) {
      apps::BatchStats stats;
      const std::int64_t a = now_ns();
      const bool counted = tracer.enabled() && id < kBatchPrefix;
      const auto expected =
          counted ? replay.oracle.batch_query(issued[id], 1, &stats)
                  : replay.checker.batch_query(issued[id], 4);
      const std::int64_t b = now_ns();
      if (counted) {
        totals.add(stats, a, b);
        tracer.add("apps.batch_query", s.id(), a, b, static_cast<std::int64_t>(id));
      }
      if (sent[id].failed || sent[id].recv == 0) continue;
      if (served[id] != expected) {
        ++wrong;
        sent[id].failed = true;
      }
      served_all.insert(served_all.end(), served[id].begin(), served[id].end());
      expected_all.insert(expected_all.end(), expected.begin(), expected.end());
    }
  }

  JsonOut out;
  emit_traffic(sent, window_start, window_end, size, backlog_max, backlog_per_s,
               wrong, err_lines, apps::digest_answers(served_all),
               apps::digest_answers(expected_all), out);
  emit_oracle(totals, out);
  out.num("snapshot_load_s", replay.load_s);
  out.u64("spanner_edges", replay.oracle.spanner_edges());
  bfs_sample(replay.oracle, seed, tracer, out);
  tracer.write(args.spans_path, "c");
  std::cout << out.done() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: nas_perfbench build|zipf|batch|selftest [--flags]\n";
      return 2;
    }
    const std::string cmd = argv[1];
    // Timer slack would round the open loop's sub-millisecond sleeps.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const util::Flags flags(argc - 1, argv + 1);
    if (cmd == "build") return cmd_build(flags);
    if (cmd == "zipf") return cmd_zipf(flags);
    if (cmd == "batch") return cmd_batch(flags);
    if (cmd == "selftest") return cmd_selftest();
    std::cerr << "nas_perfbench: unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "nas_perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
