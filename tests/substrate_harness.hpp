// Shared round-engine equivalence harness.
//
// The library guarantees that a synchronous NodeProgram touching only its
// own vertex's state produces bit-identical results on every execution
// engine: the serial round engine, the multi-threaded round engine at any
// thread count, and synchronizer α over the asynchronous engine.  This
// header provides the pieces the equivalence tests share:
//
//   * a roster of engine specs (serial, parallel × thread counts, alpha),
//     each calling its engine directly,
//   * reference node programs with externally comparable per-vertex state,
//   * a runner that executes a program on a spec and snapshots the state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "congest/async.hpp"
#include "congest/engine.hpp"
#include "congest/parallel.hpp"
#include "graph/graph.hpp"

namespace nas::testing_support {

/// A program's per-vertex state after an execution, and what the execution
/// consumed in CONGEST terms.
struct RunOutcome {
  std::vector<std::uint64_t> state;
  std::uint64_t rounds = 0;    ///< synchronous rounds executed
  std::uint64_t messages = 0;  ///< program (payload) messages sent
};

/// One execution engine configuration under test: runs exactly `rounds`
/// rounds of a program and reports rounds and messages (not state).
struct EngineSpec {
  std::string label;  // for gtest parameter names / failure messages
  std::function<RunOutcome(const graph::Graph& g, std::uint64_t rounds,
                           const congest::Engine::NodeProgram& program)>
      run;
};

inline EngineSpec parallel_spec(unsigned threads) {
  return {"parallel_t" + std::to_string(threads),
          [threads](const graph::Graph& g, std::uint64_t rounds,
                    const congest::Engine::NodeProgram& program) {
            congest::ParallelEngine engine(g, {.threads = threads});
            const std::uint64_t ran = engine.run_rounds(rounds, program);
            return RunOutcome{{}, ran, engine.messages_sent()};
          }};
}

/// Serial reference first, then every variant that must match it.
inline std::vector<EngineSpec> all_engine_specs() {
  return {
      {"serial",
       [](const graph::Graph& g, std::uint64_t rounds,
          const congest::Engine::NodeProgram& program) {
         congest::Engine engine(g);
         const std::uint64_t ran = engine.run_rounds(rounds, program);
         return RunOutcome{{}, ran, engine.messages_sent()};
       }},
      parallel_spec(1),
      parallel_spec(2),
      parallel_spec(8),
      {"alpha",
       [](const graph::Graph& g, std::uint64_t rounds,
          const congest::Engine::NodeProgram& program) {
         const congest::AlphaResult alpha = congest::run_alpha_synchronized(
             g, rounds, program, {.seed = 7, .max_delay = 5});
         return RunOutcome{{}, alpha.rounds, alpha.payload_messages};
       }},
  };
}

/// Builds a NodeProgram writing per-vertex results into `state` (resized and
/// initialized by the factory).  The program must be vertex-local: v's call
/// only touches state[v].
using ProgramFactory = std::function<congest::Engine::NodeProgram(
    const graph::Graph& g, std::vector<std::uint64_t>& state)>;

/// BFS layer flood from vertex 0: state[v] becomes d(0, v) (or ~0 if
/// unreached within the round budget).
inline ProgramFactory bfs_program_factory() {
  return [](const graph::Graph& g, std::vector<std::uint64_t>& state) {
    state.assign(g.num_vertices(), static_cast<std::uint64_t>(-1));
    if (g.num_vertices() > 0) state[0] = 0;
    return [&g, &state](graph::Vertex v, std::uint64_t round,
                        std::span<const congest::Message> inbox,
                        congest::Mailbox& mbox) {
      for (const auto& m : inbox) {
        if (state[v] == static_cast<std::uint64_t>(-1)) state[v] = m.b + 1;
      }
      if (state[v] == round) {
        for (graph::Vertex u : g.neighbors(v)) mbox.send(u, {.b = state[v]});
      }
    };
  };
}

/// Min-ID flood: state[v] converges to the smallest vertex ID in v's
/// component; a vertex re-announces whenever its minimum improves.
inline ProgramFactory min_id_program_factory() {
  return [](const graph::Graph& g, std::vector<std::uint64_t>& state) {
    state.resize(g.num_vertices());
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) state[v] = v;
    return [&g, &state](graph::Vertex v, std::uint64_t round,
                        std::span<const congest::Message> inbox,
                        congest::Mailbox& mbox) {
      bool improved = round == 0;
      for (const auto& m : inbox) {
        if (m.a < state[v]) {
          state[v] = m.a;
          improved = true;
        }
      }
      if (improved) {
        for (graph::Vertex u : g.neighbors(v)) mbox.send(u, {.a = state[v]});
      }
    };
  };
}

/// Order-sensitive mixer: every round each vertex hashes its (sorted) inbox
/// into its state and re-broadcasts.  Any difference in inbox ordering or
/// message content between engines snowballs, so this is the sharpest
/// bit-identity probe of the three.
inline ProgramFactory mixer_program_factory() {
  return [](const graph::Graph& g, std::vector<std::uint64_t>& state) {
    state.resize(g.num_vertices());
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
      state[v] = 0x9e3779b97f4a7c15ULL * (v + 1);
    }
    return [&g, &state](graph::Vertex v, std::uint64_t /*round*/,
                        std::span<const congest::Message> inbox,
                        congest::Mailbox& mbox) {
      for (const auto& m : inbox) {
        std::uint64_t h = state[v] ^ (m.a + 0x9e3779b97f4a7c15ULL +
                                      (static_cast<std::uint64_t>(m.src) << 17));
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        state[v] = h;
      }
      // Alpha reserves message field c, so only a and b are exercised.
      for (graph::Vertex u : g.neighbors(v)) {
        mbox.send(u, {.a = state[v], .b = v});
      }
    };
  };
}

/// Runs `factory`'s program for `rounds` rounds on the given engine.
inline RunOutcome run_on(const graph::Graph& g, std::uint64_t rounds,
                         const ProgramFactory& factory,
                         const EngineSpec& spec) {
  std::vector<std::uint64_t> state;
  const auto program = factory(g, state);
  RunOutcome out = spec.run(g, rounds, program);
  out.state = std::move(state);
  return out;
}

}  // namespace nas::testing_support
