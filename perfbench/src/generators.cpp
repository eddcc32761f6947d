#include "generators.hpp"

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "common/strfmt.hpp"
#include "gps/bom.hpp"
#include "kits/kit_json.hpp"
#include "rf/prototype.hpp"
#include "rf/transform.hpp"

namespace perfbench {

namespace kits = ipass::kits;
namespace core = ipass::core;

namespace {

// Stream ids: one per purpose, so two purposes never share draws.
constexpr std::uint64_t kStreamKitPool = 1;
constexpr std::uint64_t kStreamHotOptions = 2;
constexpr std::uint64_t kStreamInlineOptions = 3;
constexpr std::uint64_t kStreamBundles = 4;
constexpr std::uint64_t kStreamConnection = 100;  // + connection index
constexpr unsigned kWarmupConnection = 1000;
constexpr std::size_t kInlineWarmupRequests = 256;

std::vector<double> zipf_cdf(std::size_t n, double exponent) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::string weights_json(Rng& rng) {
  return ipass::strf("{\"performance\": %.2f, \"size\": %.2f, \"cost\": %.2f}",
                     rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0),
                     rng.uniform(0.25, 2.0));
}

std::string volume_json(Rng& rng) {
  return ipass::strf("%.0f", std::round(std::exp(rng.uniform(std::log(1e4), std::log(1e6)))));
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w :
       {Workload::HotCached, Workload::InlineJournaled, Workload::EngineSweep}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::HotCached: return "hot_cached";
    case Workload::InlineJournaled: return "inline_journaled";
    case Workload::EngineSweep: return "engine_sweep";
  }
  return "?";
}

LoadPlan load_plan(Workload workload) {
  LoadPlan plan;
  plan.connections = 2;
  plan.reconnect_every = workload == Workload::InlineJournaled ? 64 : 0;
  return plan;
}

bool reconnect_before(const LoadPlan& plan, std::uint64_t served) {
  return plan.reconnect_every > 0 && served > 0 && served % plan.reconnect_every == 0;
}

std::vector<std::string> registry_kit_names() {
  return kits::builtin_kit_registry().names();
}

kits::ProcessKit perturbed_kit(const kits::ProcessKit& base, const std::string& name,
                               std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed, stream);
  kits::ProcessKit kit = base;
  kit.name = name;
  kit.substrate.cost_per_cm2 *= rng.uniform(0.95, 1.05);
  kit.substrate.fab_yield *= rng.uniform(0.99, 1.0);
  kit.substrate.routing_overhead =
      1.0 + (kit.substrate.routing_overhead - 1.0) * rng.uniform(0.95, 1.05);
  kit.passives.integrated_filter_overhead *= rng.uniform(0.97, 1.03);
  for (kits::KitVariant& v : kit.variants) {
    v.production.volume *= rng.uniform(0.9, 1.1);
  }
  kits::validate_kit(kit);
  return kit;
}

RequestPool make_request_pool(Workload workload, std::uint64_t seed) {
  RequestPool pool;
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  if (workload == Workload::HotCached) {
    const std::vector<std::string> names = registry.names();
    pool.variants_per_kit = kHotVariants;
    for (std::size_t k = 0; k < names.size(); ++k) {
      Rng rng(seed, kStreamHotOptions * 1000 + k);
      for (std::size_t j = 0; j < kHotVariants; ++j) {
        std::string text = ipass::strf("{\"id\": \"hc-%zu-%zu\", \"kit_name\": \"%s\"", k,
                                       j, names[k].c_str());
        std::size_t edge = kHotPareto;
        if (j < edge) {
          text += ", \"pareto\": true";
        } else if (j < (edge += kHotSensitivity)) {
          text += ", \"sensitivity\": true";
        } else if (j < (edge += kHotVolume)) {
          text += ", \"volume\": " + volume_json(rng);
        } else if (j < (edge += kHotWeights)) {
          text += ", \"weights\": " + weights_json(rng);
        }
        pool.texts.push_back(text + "}");
        pool.kit_of_text.push_back(k);
      }
    }
    return pool;
  }
  // inline_journaled: kit r of the pool perturbs registry kit r % 7, so
  // every seed offers the same mix of base kits at each Zipf rank.
  const std::vector<kits::ProcessKit>& base = registry.kits();
  pool.variants_per_kit = kInlineVariants;
  pool.kit_cdf = zipf_cdf(kInlineKits, kInlineZipfExponent);
  for (std::size_t r = 0; r < kInlineKits; ++r) {
    const kits::ProcessKit& from = base[r % base.size()];
    const kits::ProcessKit kit =
        perturbed_kit(from, ipass::strf("%s-bench-%zu", from.name.c_str(), r), seed,
                      kStreamKitPool * 1000 + r);
    pool.kit_texts.push_back(kits::kit_json(kit));
    Rng rng(seed, kStreamInlineOptions * 1000 + r);
    for (std::size_t j = 0; j < kInlineVariants; ++j) {
      std::string text =
          ipass::strf("{\"id\": \"ij-%zu-%zu\", \"kit\": ", r, j) + pool.kit_texts.back();
      if (j == 1) text += ", \"volume\": " + volume_json(rng);
      if (j == 2) text += ", \"weights\": " + weights_json(rng);
      pool.texts.push_back(text + "}");
      pool.kit_of_text.push_back(r);
    }
  }
  return pool;
}

std::size_t draw_request(const RequestPool& pool, std::uint64_t seed, unsigned conn,
                         std::uint64_t n) {
  const std::uint64_t key = draw_key(seed, kStreamConnection + conn, n);
  if (pool.kit_cdf.empty()) return static_cast<std::size_t>(key % pool.texts.size());
  const double u = unit_double(key);
  const std::size_t kit = static_cast<std::size_t>(
      std::lower_bound(pool.kit_cdf.begin(), pool.kit_cdf.end(), u) - pool.kit_cdf.begin());
  const std::size_t variant =
      static_cast<std::size_t>(mix64(key) % pool.variants_per_kit);
  return std::min(kit, pool.kit_cdf.size() - 1) * pool.variants_per_kit + variant;
}

std::vector<std::size_t> warmup_indices(Workload workload, const RequestPool& pool,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (workload == Workload::HotCached) {
    for (std::size_t i = 0; i < pool.texts.size(); i += pool.variants_per_kit) {
      out.push_back(i + pool.variants_per_kit - 1);  // a plain request per kit
    }
    return out;
  }
  for (std::uint64_t n = 0; n < kInlineWarmupRequests; ++n) {
    out.push_back(draw_request(pool, seed, kWarmupConnection, n));
  }
  return out;
}

EngineShared::EngineShared()
    : registry(kits::builtin_kit_registry()),
      bom(ipass::gps::gps_front_end_bom()),
      study(ipass::gps::make_gps_case_study()),
      pipeline(ipass::gps::make_gps_pipeline(study)),
      filter(ipass::rf::realize_bandpass(ipass::rf::chebyshev(2, 0.5), 175e6, 22e6, 50.0)),
      fleet_selection(registry.names()) {}

std::vector<EngineBundle> make_engine_bundles(const EngineShared& shared,
                                              std::uint64_t seed) {
  std::vector<EngineBundle> bundles(kEngineBundles);
  const std::vector<kits::ProcessKit>& base = shared.registry.kits();
  for (std::size_t b = 0; b < kEngineBundles; ++b) {
    EngineBundle& bundle = bundles[b];
    Rng rng(seed, kStreamBundles * 1000 + b);
    const kits::ProcessKit& from = base[b % base.size()];
    bundle.kit = perturbed_kit(from, ipass::strf("%s-sweep-%zu", from.name.c_str(), b),
                               seed, kStreamBundles * 1000 + 500 + b);

    bundle.points.reserve(kEvaluatePoints);
    for (std::size_t i = 0; i < kEvaluatePoints; ++i) {
      ipass::gps::GpsSweepPoint p;
      p.confidential = shared.study.confidential;
      p.confidential.rf_chip_bare *= rng.uniform(0.8, 1.2);
      p.confidential.dsp_bare *= rng.uniform(0.8, 1.2);
      p.confidential.nre_mcm_ip *= rng.uniform(0.8, 1.2);
      bundle.points.push_back(ipass::gps::gps_assessment_inputs(p));
    }

    bundle.grid.buildups = shared.study.buildups;
    bundle.grid.corners = core::ScenarioGrid::corner_sweep(
        kGridCorners, rng.uniform(0.2, 0.3), rng.uniform(3.5, 4.5), rng.uniform(0.65, 0.75),
        rng.uniform(1.25, 1.35));
    bundle.grid.volumes =
        core::ScenarioGrid::volume_sweep(kGridVolumes, rng.uniform(1e3, 2e3), 1e7);

    bundle.fleet.reference = kits::kPcbFr4Kit;
    bundle.fleet.corners = core::ScenarioGrid::corner_sweep(
        3, rng.uniform(0.45, 0.55), rng.uniform(1.9, 2.1), 0.9, 1.1);
    bundle.fleet.volumes = core::ScenarioGrid::volume_sweep(3, 1e3, rng.uniform(0.9e6, 1.1e6));
    bundle.fleet.threads = 2;

    bundle.tolerance = ipass::rf::ToleranceSpec::integrated_untrimmed();
    bundle.tolerance.capacitor *= rng.uniform(0.9, 1.1);
    bundle.tolerance.inductor *= rng.uniform(0.9, 1.1);
    bundle.tolerance_options.samples = kToleranceSamples;
    bundle.tolerance_options.seed = rng.next();
    bundle.tolerance_options.threads = 2;

    bundle.blocks = {
        {"rf-fe", 18.0 * rng.uniform(0.9, 1.1), 30000.0},
        {"correlator", 32.0 * rng.uniform(0.9, 1.1), 45000.0},
        {"sram", 40.0 * rng.uniform(0.9, 1.1), 20000.0},
        {"pmic", 9.0 * rng.uniform(0.9, 1.1), 12000.0},
        {"serdes", 14.0 * rng.uniform(0.9, 1.1), 25000.0},
    };
  }
  return bundles;
}

}  // namespace perfbench
