#include "metrics/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace nas::metrics {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly ascending");
    }
  }
}

Histogram Histogram::pow2(unsigned buckets) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(buckets);
  for (unsigned i = 0; i < buckets && i < 64; ++i) {
    bounds.push_back(std::uint64_t{1} << i);
  }
  return Histogram(std::move(bounds));
}

void Histogram::record(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++total_;
  sum_ += value;
}

void Digest::add(std::uint64_t word) { value_ = util::mix64(value_ ^ word); }

void Digest::add(const Histogram& histogram) {
  add(histogram.bounds().size());
  for (const auto b : histogram.bounds()) add(b);
  for (const auto c : histogram.counts()) add(c);
  add(histogram.total());
  add(histogram.sum());
}

void append_histogram_fields(util::JsonObject* fields, const std::string& name,
                             const Histogram& histogram) {
  std::string les = "[";
  for (const auto b : histogram.bounds()) {
    if (les.size() > 1) les += ",";
    les += std::to_string(b);
  }
  if (les.size() > 1) les += ",";
  les += "\"inf\"]";
  std::string counts = "[";
  for (std::size_t i = 0; i < histogram.counts().size(); ++i) {
    if (i) counts += ",";
    counts += std::to_string(histogram.counts()[i]);
  }
  counts += "]";
  fields->emplace_back(name + "_le", util::JsonValue::literal(std::move(les)));
  fields->emplace_back(name + "_count",
                       util::JsonValue::literal(std::move(counts)));
  fields->emplace_back(name + "_total",
                       util::JsonValue::number(histogram.total()));
  fields->emplace_back(name + "_sum", util::JsonValue::number(histogram.sum()));
}

}  // namespace nas::metrics
