#include "run/graph_cache.hpp"

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace nas::run {

graph::Graph make_graph(const std::string& family, graph::Vertex n,
                        std::uint64_t seed) {
  return family.rfind("file:", 0) == 0
             ? graph::read_edge_list_file(family.substr(5))
             : graph::make_workload(family, n, seed);
}

std::string GraphCache::key(const std::string& family, graph::Vertex n,
                            std::uint64_t seed) {
  if (family.rfind("file:", 0) == 0) return family;
  std::string out = family;
  out += "/";
  out += std::to_string(n);
  out += "/";
  out += std::to_string(seed);
  return out;
}

std::shared_ptr<const graph::Graph> GraphCache::get(const std::string& family,
                                                    graph::Vertex n,
                                                    std::uint64_t seed,
                                                    bool* hit) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(m_);
    auto [it, inserted] = entries_.try_emplace(key(family, n, seed));
    if (inserted) it->second = std::make_shared<Entry>();
    entry = it->second;
    (inserted ? stats_.misses : stats_.hits) += 1;
    if (hit) *hit = !inserted;
  }
  std::call_once(entry->once, [&] {
    try {
      entry->graph =
          std::make_shared<const graph::Graph>(make_graph(family, n, seed));
    } catch (...) {
      entry->error = std::current_exception();
    }
  });
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->graph;
}

GraphCache::Stats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return entries_.size();
}

}  // namespace nas::run
