// Multi-threaded synchronous CONGEST round engine.
//
// Executes the same NodeProgram contract as `Engine` (engine.hpp) but fans
// the per-vertex program calls of each round out across a pool of worker
// threads, with two barriers per round:
//
//   compute phase   workers run the program for a static block of vertices;
//                   sends are staged in worker-local outboxes bucketed by the
//                   receiving worker, so no lock is ever taken on the hot path,
//   --- barrier ---
//   delivery phase  each worker gathers the messages addressed to its block,
//                   sorts every inbox by sender ID, and clears the outboxes
//                   it consumed,
//   --- barrier --- (the last arriver aggregates counters, charges the
//                    ledger, and decides whether to stop).
//
// Determinism / equivalence: a vertex receives at most one message per
// incident edge-direction per round, so sender IDs within an inbox are
// unique and sorting by sender reproduces exactly the inbox order of the
// serial engine.  Provided the program only touches state belonging to the
// vertex it was invoked for (the CONGEST locality contract — a node program
// has no business reading another node's memory), the resulting program
// state is bit-identical to `Engine` and to the α-synchronizer for every
// thread count.  tests/test_substrate_equivalence.cpp enforces this across
// all three engines.  core::run_algorithm1_exact (build_spanner's
// Algorithm 1 cross-check) runs on this engine.
//
// Bandwidth enforcement is unchanged: a second send over one edge-direction
// in one round throws std::logic_error, a send to a non-neighbor throws
// std::invalid_argument.  Exceptions thrown on worker threads (by the
// program or by these guards) are captured and rethrown on the calling
// thread after the pool drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "congest/ledger.hpp"
#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace nas::congest {

struct ParallelOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
};

class ParallelEngine {
 public:
  using Mailbox = congest::Mailbox;
  using NodeProgram = Engine::NodeProgram;
  using Options = ParallelOptions;

  explicit ParallelEngine(const graph::Graph& g, Options options = {},
                          Ledger* ledger = nullptr);

  /// Runs exactly `rounds` rounds.  Returns the number of rounds executed.
  std::uint64_t run_rounds(std::uint64_t rounds, const NodeProgram& program);

  /// Runs until a round in which no messages are in flight and `quiescent`
  /// returns true, or until `max_rounds`.  Returns rounds executed.
  std::uint64_t run_until_quiescent(const NodeProgram& program,
                                    const std::function<bool()>& quiescent,
                                    std::uint64_t max_rounds);

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  class WorkerMailbox;
  friend class WorkerMailbox;

  /// Central barrier; the last arriver runs `completion` (if any) before the
  /// group is released, so completion sees every worker quiesced.
  class Barrier {
   public:
    explicit Barrier(unsigned count) : count_(count) {}

    /// Only valid while no thread is inside arrive_and_wait.
    void reset(unsigned count) {
      count_ = count;
      waiting_ = 0;
    }

    void arrive_and_wait(const std::function<void()>& completion) {
      std::unique_lock<std::mutex> lock(m_);
      if (++waiting_ == count_) {
        if (completion) completion();
        waiting_ = 0;
        ++phase_;
        cv_.notify_all();
      } else {
        const std::uint64_t my_phase = phase_;
        cv_.wait(lock, [&] { return phase_ != my_phase; });
      }
    }

   private:
    std::mutex m_;
    std::condition_variable cv_;
    unsigned count_;
    unsigned waiting_ = 0;
    std::uint64_t phase_ = 0;
  };

  /// Shared driver behind both run modes; `quiescent` may be null.
  std::uint64_t run(const NodeProgram& program,
                    const std::function<bool()>* quiescent,
                    std::uint64_t max_rounds);
  void worker_loop(unsigned w, const NodeProgram& program);
  void end_of_round();  // barrier completion: aggregate, charge, decide stop
  void record_exception() noexcept;

  /// Vertex ownership follows the canonical shard partition, so the
  /// engine's blocks and every other sharded consumer stay in lockstep.
  [[nodiscard]] graph::Vertex block_begin(unsigned w) const {
    return static_cast<graph::Vertex>(
        util::ThreadPool::shard(g_->num_vertices(), threads_, w).first);
  }

  std::vector<unsigned> owner_;  // owner_[v]: worker whose block holds v

  const graph::Graph* g_;
  Ledger* ledger_;
  unsigned threads_ = 1;
  util::ThreadPool pool_;  // persistent workers reused across run() calls

  std::vector<std::vector<Message>> inbox_;
  std::vector<std::uint64_t> edge_used_round_;  // per directed-edge slot
  DirectedEdgeIndex dir_index_;

  // outbox_[sender_worker * threads_ + dest_worker]: messages staged during
  // the compute phase, consumed (and cleared) by dest_worker's delivery.
  std::vector<std::vector<std::pair<graph::Vertex, Message>>> outbox_;
  std::vector<std::uint64_t> worker_sent_;     // per-worker, this round
  std::vector<std::uint64_t> worker_pending_;  // per-worker, after delivery

  // Round state shared with the pool; written only while every worker is
  // parked in a barrier (end_of_round, record_exception's abort flag aside),
  // read by everyone after release.
  Barrier barrier_{1};
  std::uint64_t current_round_ = 0;
  std::uint64_t rounds_executed_ = 0;
  std::uint64_t max_rounds_ = 0;
  const std::function<bool()>* quiescent_ = nullptr;
  bool stop_ = false;

  std::uint64_t messages_sent_ = 0;
  std::size_t pending_count_ = 0;

  std::mutex error_m_;
  std::exception_ptr first_error_;
  std::atomic<bool> aborted_{false};  // a worker threw; drain without working
};

}  // namespace nas::congest
