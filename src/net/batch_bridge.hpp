// The bounded-queue bridge between the IO event loop and the oracle's
// batch path.
//
// The event loop must never block on a BFS: it stays IO-only, and all
// answering happens on a dedicated worker thread that feeds
// SpannerDistanceOracle::batch_query (one call at a time by the oracle's
// contract; it parallelizes internally across `serve_threads` BFS
// workers).  The bridge is the only cross-thread seam in the daemon:
//
//   loop thread                      worker thread
//   -----------                      -------------
//   try_submit(job) --> [bounded FIFO] --> pop, oracle.batch_query(...)
//   drain_completions() <-- [FIFO] <------ push result, wakeup byte
//
// Ordering guarantee: jobs complete in submission order (single worker,
// FIFO queues), so every connection's responses come back in its own
// request order with no per-connection sequencing needed.  Backpressure:
// `try_submit` refuses past `queue_depth` instead of blocking — the loop
// parks the connection and retries after the next completion, so a burst
// of batches degrades to bounded memory, never to an unresponsive loop.
//
// A worker-side exception (impossible for validated requests, but the
// bridge does not get to assume that) is captured into the result's
// `error` field rather than tearing down the daemon.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "metrics/metrics.hpp"
#include "util/json.hpp"

namespace nas::net {

struct BatchJob {
  /// What the worker should do.  kStats/kMetrics jobs carry no queries:
  /// they exist so cumulative oracle counters and metrics are *read on the
  /// thread that mutates them* — snapshotting on the loop thread while a
  /// batch_query() is in flight would race the worker.  Routing snapshots
  /// through the same FIFO also sequences them against the batches around
  /// them.
  enum class Kind { kBatch, kStats, kMetrics };
  Kind kind = Kind::kBatch;
  std::uint64_t connection_id = 0;
  std::vector<apps::Query> queries;  ///< kBatch only
};

struct BatchResult {
  BatchJob::Kind kind = BatchJob::Kind::kBatch;
  std::uint64_t connection_id = 0;
  std::vector<apps::Query> queries;   ///< echoed for answer rendering
  std::vector<std::uint32_t> answers; ///< empty when `error` is set
  apps::BatchStats stats;
  /// kStats: apps::oracle_stats_fields(oracle, lifetime counters);
  /// kMetrics: the bridge's work metrics.  The loop thread appends its
  /// connection counters to a STATS snapshot and renders.
  util::JsonObject snapshot;
  std::string error;                  ///< non-empty: batch_query() threw
};

class BatchBridge {
 public:
  /// `serve_threads` is passed through to every oracle.batch_query call;
  /// `wakeup_write_fd` receives one byte per completion (and one at worker
  /// exit) so the event loop never needs to poll the bridge.
  BatchBridge(apps::SpannerDistanceOracle& oracle, unsigned serve_threads,
              std::size_t queue_depth, int wakeup_write_fd);
  ~BatchBridge();
  BatchBridge(const BatchBridge&) = delete;
  BatchBridge& operator=(const BatchBridge&) = delete;

  /// Loop thread.  False when the queue is at capacity (the job is NOT
  /// consumed — the caller keeps it and retries after a completion).
  [[nodiscard]] bool try_submit(BatchJob&& job);

  /// Loop thread, after a wakeup byte: all results completed so far, in
  /// completion (= submission) order.
  [[nodiscard]] std::vector<BatchResult> drain_completions();

  /// Jobs submitted but not yet drained (loop-thread view).
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Finishes every queued job, then stops and joins the worker.  Called by
  /// the destructor; safe to call twice.
  void shutdown();

 private:
  void worker_main();
  [[nodiscard]] util::JsonObject metrics_fields() const;

  apps::SpannerDistanceOracle& oracle_;
  const unsigned serve_threads_;
  const std::size_t queue_depth_;
  const int wakeup_write_fd_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<BatchJob> jobs_;
  std::deque<BatchResult> results_;
  bool stopping_ = false;

  std::size_t in_flight_ = 0;  ///< loop thread only

  // Worker thread only.  Every field except serve_latency_us is a pure
  // function of the batch history; metrics_digest covers exactly those.
  apps::BatchStats lifetime_;  ///< one += per batch, in completion order
  std::uint64_t serve_calls_ = 0;
  /// Requests per batch (pow2 buckets 1..2^16).
  metrics::Histogram batch_requests_ = metrics::Histogram::pow2(17);
  /// Wall-clock batch_query latency in µs (pow2 buckets 1..2^25, ~33 s) —
  /// timing-only: exported for humans, excluded from metrics_digest.
  metrics::Histogram serve_latency_us_ = metrics::Histogram::pow2(26);

  std::thread worker_;
};

}  // namespace nas::net
