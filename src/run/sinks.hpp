// Unified result emission: every experiment writes the same flat row schema,
// as a JSON array of objects or as CSV, from Runner rows in spec order.
//
// Determinism contract: with `timing == false` (the default) every emitted
// field is a pure function of the spec vector, so the bytes written are
// identical at any Runner/verifier thread count.  `timing == true` appends
// the wall-clock columns for perf-trajectory artifacts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "run/runner.hpp"
#include "util/json.hpp"

namespace nas::run {

struct SinkOptions {
  bool timing = false;  ///< include nondeterministic wall-clock fields
};

/// The unified row schema (ordered key -> value), the single source of truth
/// both sinks render from.
[[nodiscard]] util::JsonObject row_fields(const ResultRow& row,
                                          const SinkOptions& options = {});

/// Renders rows as a JSON array of one-line objects.
[[nodiscard]] std::string render_json(const std::vector<ResultRow>& rows,
                                      const SinkOptions& options = {});

/// Renders rows as CSV (header + one line per row).
[[nodiscard]] std::string render_csv(const std::vector<ResultRow>& rows,
                                     const SinkOptions& options = {});

/// Writes render_json / render_csv to `path`; throws std::runtime_error when
/// the file cannot be opened.
void write_json(const std::vector<ResultRow>& rows, const std::string& path,
                const SinkOptions& options = {});
void write_csv(const std::vector<ResultRow>& rows, const std::string& path,
               const SinkOptions& options = {});

}  // namespace nas::run
