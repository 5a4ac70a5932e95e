// First-class metrics primitives for the serving stack.
//
// Building blocks with the same discipline the rest of the repo enforces:
// every metric a CI gate compares is a pure function of the request
// history, never of wall-clock or thread scheduling.
//
//   * Histogram     — fixed upper-bound buckets over uint64 samples.  Fed
//                     *work* values (batch sizes) the bucket counts are
//                     byte-identical across runs and thread counts, so tests
//                     assert on them directly.  Fed wall-clock values (serve
//                     latency) the counts are timing-only: exported for
//                     humans, excluded from every digest a gate compares.
//   * Digest        — an order-sensitive mix64 fold over uint64 words, the
//                     counter analogue of apps::digest_answers.
//
// Rendering goes through util::JsonObject so the METRICS verb, the STATS
// endpoint, and the bench sinks can never drift on field shape: a histogram
// renders as two parallel arrays, `<name>_le` (upper bounds, "inf" last)
// and `<name>_count` (per-bucket counts), plus `<name>_total`/`<name>_sum`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace nas::metrics {

/// Fixed-bucket histogram over uint64 samples.  Bucket i counts samples
/// <= bounds[i]; one implicit overflow bucket counts the rest, so
/// counts().size() == bounds().size() + 1.  Bounds are fixed at
/// construction (strictly ascending), which is what makes two histograms
/// comparable.
class Histogram {
 public:
  /// A histogram with no finite buckets: every sample lands in overflow.
  Histogram() : counts_(1, 0) {}

  /// Strictly ascending finite upper bounds; throws std::invalid_argument
  /// otherwise.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  /// Power-of-two bounds 1, 2, 4, ..., 2^(buckets-1): the standard shape
  /// for batch sizes and queue depths, where ratios matter and exact
  /// magnitudes do not.
  [[nodiscard]] static Histogram pow2(unsigned buckets);

  void record(std::uint64_t value);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 entries
  std::uint64_t total_ = 0;            ///< samples recorded
  std::uint64_t sum_ = 0;              ///< sum of sample values
};

/// Order-sensitive digest over uint64 words (SplitMix64 finalizer chain,
/// same construction as apps::digest_answers).  CI compares these instead
/// of full counter dumps: one hex64 word per configuration.
class Digest {
 public:
  void add(std::uint64_t word);
  /// Folds a histogram's deterministic state (bounds, counts, total, sum)
  /// into the digest.
  void add(const Histogram& histogram);
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Appends the canonical four-field rendering of `histogram` under `name`:
/// `<name>_le` (finite bounds then "inf"), `<name>_count` (parallel bucket
/// counts), `<name>_total`, `<name>_sum`.
void append_histogram_fields(util::JsonObject* fields, const std::string& name,
                             const Histogram& histogram);

}  // namespace nas::metrics
