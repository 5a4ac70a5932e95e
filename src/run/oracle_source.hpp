// The oracle source nas_oracle and nas_served share: the flags that name a
// graph and a schedule, and the build-or-load step that turns them (or a
// snapshot path) into a serving oracle.  Kept apart from run/runner so the
// serving binaries link the oracle and the graph generators, not the whole
// experiment runner.
#pragma once

#include <string>

#include "apps/distance_oracle.hpp"
#include "run/scenario.hpp"
#include "util/flags.hpp"

namespace nas::run {

/// Registers the graph-source and schedule flags nas_oracle and nas_served
/// share (--family --n --seed --eps --kappa --rho --mode) and returns them
/// as a spec; every other spec field keeps its default.
[[nodiscard]] ScenarioSpec oracle_build_flags(const util::Flags& flags);

/// The oracle a serving tool starts from: the snapshot at `load_path` when it
/// is non-empty (format detected from the file), otherwise the em spanner of
/// `build`'s graph under `build`'s schedule.  An unknown `build.mode` throws
/// std::invalid_argument on either path.
[[nodiscard]] apps::SpannerDistanceOracle open_oracle(
    const std::string& load_path, const ScenarioSpec& build,
    const apps::OracleOptions& options);

}  // namespace nas::run
