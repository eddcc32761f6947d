// Seeded workload inputs.  Everything here is a pure function of
// (workload, seed): the request texts the daemon receives, the inline-kit
// pool, the per-connection draw sequences and the engine bundles.  The
// draws use the benchmark's own RNG (bench_common.hpp), never the
// library's, so a library change cannot silently change the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/function_bom.hpp"
#include "core/methodology.hpp"
#include "core/partition.hpp"
#include "core/scenario_grid.hpp"
#include "gps/casestudy.hpp"
#include "kits/fleet.hpp"
#include "kits/registry.hpp"
#include "rf/netlist.hpp"
#include "rf/tolerance.hpp"

namespace perfbench {

enum class Workload { HotCached, InlineJournaled, EngineSweep };

// Parses "hot_cached" | "inline_journaled" | "engine_sweep"; false otherwise.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

// The seed whose output digest is committed with the benchmark.
inline constexpr std::uint64_t kDefaultSeed = 1;

// ------------------------------------------------------------ serve load
// Shape of a serve workload's closed loop: `connections` client threads,
// each with one connection that is replaced every `reconnect_every`
// requests (0 = persistent).
struct LoadPlan {
  unsigned connections = 2;
  std::uint64_t reconnect_every = 0;
};

LoadPlan load_plan(Workload workload);

// When a connection has served `served` requests, whether the client must
// replace it before sending the next one.
bool reconnect_before(const LoadPlan& plan, std::uint64_t served);

// A pool of distinct request texts plus the rule that draws from it.
struct RequestPool {
  std::vector<std::string> texts;
  // Inline-kit documents of the pool (inline_journaled only), and for each
  // text the index of the kit it carries (hot_cached: registry kit index).
  std::vector<std::string> kit_texts;
  std::vector<std::size_t> kit_of_text;
  std::size_t variants_per_kit = 0;
  // Zipf CDF over kits (inline_journaled); empty = uniform over texts.
  std::vector<double> kit_cdf;
};

// Counts per option variant of the hot_cached mix (out of kHotVariants).
inline constexpr std::size_t kHotVariants = 128;
inline constexpr std::size_t kHotPareto = 13;       // ~10%
inline constexpr std::size_t kHotSensitivity = 4;   // ~3%
inline constexpr std::size_t kHotVolume = 13;       // ~10%
inline constexpr std::size_t kHotWeights = 13;      // ~10%

inline constexpr std::size_t kInlineKits = 32;
inline constexpr std::size_t kInlineVariants = 8;
inline constexpr double kInlineZipfExponent = 1.1;

// The registry kits (insertion order) hot_cached requests by name.
std::vector<std::string> registry_kit_names();

// One registry kit with seeded, validation-safe perturbations of its
// substrate and passives, renamed `name`.
ipass::kits::ProcessKit perturbed_kit(const ipass::kits::ProcessKit& base,
                                      const std::string& name, std::uint64_t seed,
                                      std::uint64_t stream);

RequestPool make_request_pool(Workload workload, std::uint64_t seed);

// Pool index of request `n` on connection `conn` (a pure function).
std::size_t draw_request(const RequestPool& pool, std::uint64_t seed, unsigned conn,
                         std::uint64_t n);

// The warm-up pass sent before the timed window: every registry study once
// (hot_cached) or a Zipf-drawn prefix on its own stream (inline_journaled).
std::vector<std::size_t> warmup_indices(Workload workload, const RequestPool& pool,
                                        std::uint64_t seed);

// ------------------------------------------------------------ engine sweep
inline constexpr std::size_t kEngineBundles = 8;
inline constexpr std::size_t kEvaluatePoints = 1024;
inline constexpr std::size_t kGridCorners = 50;
inline constexpr std::size_t kGridVolumes = 500;
inline constexpr std::size_t kToleranceSamples = 2000;

// Inputs shared by every bundle (built once per set-up).
struct EngineShared {
  ipass::kits::KitRegistry registry;
  ipass::core::FunctionalBom bom;
  ipass::gps::GpsCaseStudy study;
  ipass::core::AssessmentPipeline pipeline;
  ipass::rf::Circuit filter;
  std::vector<std::string> fleet_selection;

  EngineShared();
};

// One op of engine_sweep: the inputs of one call to each engine.
struct EngineBundle {
  ipass::kits::ProcessKit kit;
  std::vector<ipass::core::AssessmentInputs> points;
  ipass::core::ScenarioGrid grid;
  ipass::kits::KitSweepOptions fleet;
  ipass::rf::ToleranceSpec tolerance;
  ipass::rf::ToleranceOptions tolerance_options;
  std::vector<ipass::core::PartitionBlock> blocks;
};

std::vector<EngineBundle> make_engine_bundles(const EngineShared& shared,
                                              std::uint64_t seed);

}  // namespace perfbench
