#include "net/batch_bridge.hpp"

#include <exception>
#include <utility>

#include "net/posix_io.hpp"
#include "util/timer.hpp"

namespace nas::net {

BatchBridge::BatchBridge(apps::SpannerDistanceOracle& oracle,
                         unsigned serve_threads, std::size_t queue_depth,
                         int wakeup_write_fd)
    : oracle_(oracle),
      serve_threads_(serve_threads),
      queue_depth_(queue_depth == 0 ? 1 : queue_depth),
      wakeup_write_fd_(wakeup_write_fd),
      worker_([this] { worker_main(); }) {}

BatchBridge::~BatchBridge() { shutdown(); }

bool BatchBridge::try_submit(BatchJob&& job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (jobs_.size() >= queue_depth_) return false;
    jobs_.push_back(std::move(job));
  }
  ++in_flight_;
  work_ready_.notify_one();
  return true;
}

std::vector<BatchResult> BatchBridge::drain_completions() {
  std::vector<BatchResult> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!results_.empty()) {
      out.push_back(std::move(results_.front()));
      results_.pop_front();
    }
  }
  in_flight_ -= out.size();
  return out;
}

void BatchBridge::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_one();
  if (worker_.joinable()) worker_.join();
}

void BatchBridge::worker_main() {
  for (;;) {
    BatchJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      // Drain-then-stop: queued jobs are answered even during shutdown, so
      // a graceful SIGTERM never drops an accepted request.
      if (jobs_.empty()) break;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    BatchResult result;
    result.kind = job.kind;
    result.connection_id = job.connection_id;
    result.queries = std::move(job.queries);
    switch (job.kind) {
      case BatchJob::Kind::kBatch:
        try {
          const util::Timer timer;
          result.answers = oracle_.batch_query(result.queries, serve_threads_,
                                               &result.stats);
          lifetime_ += result.stats;
          ++serve_calls_;
          batch_requests_.record(result.queries.size());
          serve_latency_us_.record(
              static_cast<std::uint64_t>(timer.seconds() * 1e6));
        } catch (const std::exception& e) {
          result.answers.clear();
          result.error = e.what();
        }
        break;
      // Snapshots run here — between batches, on the thread that owns the
      // oracle's counters — never on the loop thread, where they would race
      // an in-flight batch_query().
      case BatchJob::Kind::kStats:
        result.snapshot = apps::oracle_stats_fields(oracle_, lifetime_);
        break;
      case BatchJob::Kind::kMetrics:
        result.snapshot = metrics_fields();
        break;
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      results_.push_back(std::move(result));
    }
    signal_wakeup(wakeup_write_fd_);
  }
  // One parting wakeup so a loop blocked in wait() notices the worker is
  // done during shutdown even if no completion was pending.
  signal_wakeup(wakeup_write_fd_);
}

util::JsonObject BatchBridge::metrics_fields() const {
  util::JsonObject fields{
      {"serve_calls", util::JsonValue::number(serve_calls_)}};
  metrics::append_histogram_fields(&fields, "batch_requests", batch_requests_);
  metrics::Digest digest;
  digest.add(serve_calls_);
  digest.add(batch_requests_);
  fields.emplace_back("metrics_digest", util::JsonValue::hex64(digest.value()));
  // Wall-clock latency last: timing-only, excluded from metrics_digest.
  metrics::append_histogram_fields(&fields, "serve_latency_us",
                                   serve_latency_us_);
  return fields;
}

}  // namespace nas::net
