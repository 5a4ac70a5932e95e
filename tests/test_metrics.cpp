// Tests for the metrics primitives (src/metrics): histogram bucket-edge
// semantics, the pow2 factory, digest stability and
// order-sensitivity, and the canonical JSON rendering.  Everything here is
// deterministic by construction — no wall-clock assertions.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "util/json.hpp"

namespace {

using namespace nas;
using metrics::Digest;
using metrics::Histogram;

TEST(Histogram, DefaultIsOverflowOnly) {
  Histogram h;
  EXPECT_TRUE(h.bounds().empty());
  ASSERT_EQ(h.counts().size(), 1u);
  h.record(0);
  h.record(1'000'000);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.sum(), 1'000'000u);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  // Bucket i counts samples <= bounds[i]; the implicit last bucket counts
  // the overflow.  Exercise each edge exactly.
  Histogram h({1, 2, 4});
  ASSERT_EQ(h.counts().size(), 4u);
  h.record(0);  // <= 1
  h.record(1);  // <= 1
  h.record(2);  // <= 2
  h.record(3);  // <= 4
  h.record(4);  // <= 4
  h.record(5);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 2, 1}));
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.sum(), 15u);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(Histogram({1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(Histogram({2, 1}), std::invalid_argument);
}

TEST(Histogram, Pow2FactoryShape) {
  const auto h = Histogram::pow2(5);
  EXPECT_EQ(h.bounds(), (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(h.counts().size(), 6u);
  // Degenerate cases: 0 buckets is the overflow-only histogram, and the
  // bucket count clamps at 64 (the uint64 value range).
  EXPECT_TRUE(Histogram::pow2(0).bounds().empty());
  EXPECT_EQ(Histogram::pow2(100).bounds().size(), 64u);
}

TEST(Digest, IsStableAndOrderSensitive) {
  Digest a, b;
  a.add(1);
  a.add(2);
  b.add(1);
  b.add(2);
  EXPECT_EQ(a.value(), b.value());

  Digest reversed;
  reversed.add(2);
  reversed.add(1);
  EXPECT_NE(a.value(), reversed.value());

  // The empty digest is the fixed zero seed; a nonzero word moves it
  // (zero is mix64's fixed point, same as in apps::digest_answers).
  Digest empty;
  EXPECT_EQ(empty.value(), 0u);
  Digest one;
  one.add(1);
  EXPECT_NE(one.value(), 0u);
}

TEST(Digest, CoversHistogramState) {
  Histogram h({1, 2});
  h.record(2);
  Digest with, without;
  with.add(h);
  without.add(Histogram({1, 2}));
  EXPECT_NE(with.value(), without.value());

  // Same recorded state folds to the same word.
  Histogram h2({1, 2});
  h2.record(2);
  Digest again;
  again.add(h2);
  EXPECT_EQ(with.value(), again.value());
}

TEST(Rendering, HistogramFieldsAreParallelArrays) {
  Histogram h({1, 2});
  h.record(1);
  h.record(3);
  util::JsonObject fields;
  metrics::append_histogram_fields(&fields, "depth", h);
  const std::string json = util::render_json_object(fields);
  EXPECT_NE(json.find("\"depth_le\": [1,2,\"inf\"]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"depth_count\": [1,0,1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth_total\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth_sum\": 4"), std::string::npos) << json;
}

}  // namespace
