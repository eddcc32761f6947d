// The engine_sweep workload: seeded bundles of one call to each batch
// engine, run in-process at threads = 2 and checked bit for bit against a
// 1-thread reference run (the determinism contract).
#pragma once

#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "generators.hpp"

namespace perfbench {

// Wall time of each engine call of one bundle, nanoseconds.
struct BundleSpans {
  std::uint64_t compile = 0, evaluate = 0, grid = 0, fleet = 0, tolerance = 0, partition = 0;
};

// Runs one bundle with `threads` engine threads and returns the fingerprint
// of every result it produced.  `spans` (optional) receives the call times.
std::uint64_t run_bundle(const EngineShared& shared, const EngineBundle& bundle,
                         unsigned threads, BundleSpans* spans);

// Mean time of the optional serve stages, pareto_analysis and
// cost_sensitivity, on the study the service compiles for each kit
// (pcb-fr4 anchors plus the kit's variants), one thread.
struct OptionalStageTimes {
  double pareto_us = 0.0;
  double sensitivity_us = 0.0;
};
OptionalStageTimes time_optional_stages(const std::vector<ipass::kits::ProcessKit>& kits);

struct EngineConfig {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  unsigned setup_reps = 9;
};

JsonObject run_engine(const EngineConfig& config, bool& correct);

}  // namespace perfbench
