// Shared helpers for the reproduction bench binaries.
//
// Experiment execution (generate/build/measure/verify/emit) lives in
// src/run — benches construct a ScenarioMatrix, call run::Runner, and
// post-process the rows.  The scaling experiments S1/S2 need no binary at
// all: they are scenario files under bench/scenarios/ run by nas_run, and
// their claims are asserted by test_golden_sinks.  What remains here is
// presentation: the banner every bench prints.  Every bench's main runs its
// body through util::guarded_main (util/flags.hpp), as the examples do, so a
// bad flag value exits 2 with a message naming the flag.
#pragma once

#include <iostream>
#include <string>

#include "graph/generators.hpp"
#include "run/runner.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace nas::bench {

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& what) {
  std::cout << "=== " << id << " — " << what << " ===\n"
            << "    (paper: Elkin & Matar, Near-Additive Spanners In Low\n"
            << "     Polynomial Deterministic CONGEST Time, PODC 2019)\n\n";
}

}  // namespace nas::bench
