#include "engine_sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "common/jsonfmt.hpp"
#include "core/pareto.hpp"
#include "core/sensitivity.hpp"
#include "gps/bom.hpp"

namespace perfbench {

namespace core = ipass::core;
namespace kits = ipass::kits;

namespace {

// Build-ups of the study the service compiles for `kit`: the pcb-fr4
// reference anchors, then the kit's own variants.  Returns the index of the
// kit's first own build-up.
std::size_t service_buildups(const kits::KitRegistry& registry, const kits::ProcessKit& kit,
                             std::vector<core::BuildUp>& out) {
  const kits::ProcessKit& reference = registry.at(kits::kPcbFr4Kit);
  out = kits::make_buildups(reference);
  if (kit.name == reference.name) return 0;
  const std::size_t own = out.size();
  for (core::BuildUp& b : kits::make_buildups(kit, static_cast<int>(own) + 1)) {
    out.push_back(std::move(b));
  }
  return own;
}

void add_summary(Fingerprint& fp, const core::BuildUpSummary& s) {
  for (const double v : {s.performance, s.module_area_mm2, s.area_rel, s.shipped_fraction,
                         s.direct_cost, s.chip_cost_direct, s.yield_loss_per_shipped,
                         s.nre_per_shipped, s.final_cost_per_shipped, s.cost_rel, s.fom}) {
    fp.f64(v);
  }
}

void add_batch(Fingerprint& fp, const core::BatchAssessmentResult& r) {
  fp.u64(r.points);
  fp.u64(r.buildups);
  for (const core::BuildUpSummary& s : r.summaries) add_summary(fp, s);
  for (const std::size_t w : r.winners) fp.u64(w);
}

void add_cell(Fingerprint& fp, const core::ScenarioCell& c) {
  fp.u64(c.cell);
  fp.f64(c.final_cost_per_shipped);
  fp.f64(c.shipped_fraction);
}

void add_grid(Fingerprint& fp, const core::ScenarioGridSummary& g) {
  fp.u64(g.cells);
  add_cell(fp, g.best);
  add_cell(fp, g.worst);
  fp.f64(g.cost_mean);
  fp.f64(g.cost_stddev);
  for (const std::size_t w : g.wins_per_buildup) fp.u64(w);
}

double span_ns(std::uint64_t since) { return static_cast<double>(now_ns() - since); }

}  // namespace

std::uint64_t run_bundle(const EngineShared& shared, const EngineBundle& bundle,
                         unsigned threads, BundleSpans* spans) {
  Fingerprint fp;
  std::uint64_t t = now_ns();

  std::vector<core::BuildUp> buildups;
  service_buildups(shared.registry, bundle.kit, buildups);
  const std::shared_ptr<const core::CompiledStudy> study =
      core::compile_study(shared.bom, std::move(buildups), kits::apply_passives(bundle.kit));
  if (spans != nullptr) spans->compile += static_cast<std::uint64_t>(span_ns(t));
  fp.f64(study->ref_area);
  for (std::size_t b = 0; b < study->buildups.size(); ++b) {
    fp.f64(study->performance[b].score);
    fp.f64(study->areas[b].component_area_mm2);
    fp.f64(study->areas[b].module_area_mm2());
    fp.f64(study->area_rel[b]);
  }

  t = now_ns();
  const core::BatchAssessmentResult batch = shared.pipeline.evaluate(bundle.points, threads);
  if (spans != nullptr) spans->evaluate += static_cast<std::uint64_t>(span_ns(t));
  add_batch(fp, batch);

  t = now_ns();
  const core::ScenarioGridSummary grid =
      core::evaluate_scenario_grid(shared.study.bom, shared.study.kits, bundle.grid, threads);
  if (spans != nullptr) spans->grid += static_cast<std::uint64_t>(span_ns(t));
  add_grid(fp, grid);

  t = now_ns();
  kits::KitSweepOptions fleet_options = bundle.fleet;
  fleet_options.threads = threads;
  const kits::KitFleetSummary fleet =
      kits::sweep_kits(shared.registry, shared.fleet_selection, shared.bom, fleet_options);
  if (spans != nullptr) spans->fleet += static_cast<std::uint64_t>(span_ns(t));
  fp.u64(fleet.winner);
  for (const kits::KitAssessment& k : fleet.kits) {
    fp.text(k.kit);
    for (const core::BuildUpAssessment& a : k.report.assessments) {
      add_summary(fp, core::summarize(a));
    }
    fp.u64(k.report.winner);
    add_grid(fp, k.grid);
    add_batch(fp, k.pareto.results);
    for (const core::ParetoEntry& e : k.pareto.entries) fp.u64(e.dominated ? 1 : 0);
    fp.u64(k.best_variant);
    fp.f64(k.best_fom);
  }

  t = now_ns();
  ipass::rf::ToleranceOptions tolerance_options = bundle.tolerance_options;
  tolerance_options.threads = threads;
  const ipass::rf::ToleranceResult tol = ipass::rf::bandpass_parametric_yield(
      shared.filter, bundle.tolerance, 175e6, 1.0, 0.0, tolerance_options);
  if (spans != nullptr) spans->tolerance += static_cast<std::uint64_t>(span_ns(t));
  fp.u64(tol.samples);
  fp.u64(tol.passing);
  for (const double v : {tol.parametric_yield, tol.ci95_half_width, tol.metric_mean,
                         tol.metric_stddev, tol.metric_min, tol.metric_max}) {
    fp.f64(v);
  }

  t = now_ns();
  const core::PartitionSweepResult part =
      core::partition_sweep(shared.pipeline, 1, bundle.blocks, {}, threads);
  if (spans != nullptr) spans->partition += static_cast<std::uint64_t>(span_ns(t));
  fp.u64(part.best);
  for (const core::PartitionCandidate& c : part.candidates) {
    for (const int a : c.assignment) fp.u64(static_cast<std::uint64_t>(a));
    fp.u64(c.die_count);
    add_summary(fp, c.summary);
  }
  return fp.value();
}

OptionalStageTimes time_optional_stages(const std::vector<kits::ProcessKit>& kit_list) {
  OptionalStageTimes out;
  if (kit_list.empty()) return out;
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const core::FunctionalBom bom = ipass::gps::gps_front_end_bom();
  for (const kits::ProcessKit& kit : kit_list) {
    std::vector<core::BuildUp> buildups;
    const std::size_t own = service_buildups(registry, kit, buildups);
    const core::AssessmentPipeline pipeline(
        core::compile_study(bom, std::move(buildups), kits::apply_passives(kit)));
    const core::BatchAssessmentResult batch =
        pipeline.evaluate({core::AssessmentInputs{}}, 1);
    std::size_t target = own;
    for (std::size_t b = own; b < batch.buildups; ++b) {
      if (batch.at(0, b).fom > batch.at(0, target).fom) target = b;
    }
    constexpr int kParetoReps = 50;
    std::uint64_t t = now_ns();
    for (int r = 0; r < kParetoReps; ++r) (void)core::pareto_analysis(batch, 0);
    out.pareto_us += span_ns(t) / kParetoReps / 1e3;
    core::SensitivityOptions opts;
    opts.threads = 1;
    constexpr int kSensitivityReps = 3;
    t = now_ns();
    for (int r = 0; r < kSensitivityReps; ++r) {
      (void)core::cost_sensitivity(bom, pipeline.buildups()[target],
                                   kits::apply_passives(kit), opts);
    }
    out.sensitivity_us += span_ns(t) / kSensitivityReps / 1e3;
  }
  out.pareto_us /= static_cast<double>(kit_list.size());
  out.sensitivity_us /= static_cast<double>(kit_list.size());
  return out;
}

namespace {

struct EngineWindow {
  double window_s = 0.0;
  std::uint64_t attempted = 0, ok = 0, wrong = 0;
  std::vector<Slice> slices;  // process CPU per slice
  std::vector<LatencySample> latency;
  long threads = 0;
  BundleSpans spans;
  WindowFigures fig;
};

EngineWindow run_window(const EngineShared& shared, const std::vector<EngineBundle>& bundles,
                        const std::vector<std::uint64_t>& reference, double seconds,
                        bool traced) {
  EngineWindow w;
  w.latency.reserve(static_cast<std::size_t>(seconds * 2000.0));
  const std::size_t slices = slice_count(seconds);
  const std::uint64_t slice_ns = static_cast<std::uint64_t>(seconds / slices * 1e9);
  const std::uint64_t t_start = now_ns();
  const std::uint64_t deadline = t_start + static_cast<std::uint64_t>(seconds * 1e9);
  // Ops are binned into slices by completion time.  A slice closes when
  // the first op of a later slice ends; its length and CPU run to the end
  // of its own last op.
  Slice open;
  std::uint32_t open_index = 0;
  std::uint64_t open_start = t_start, last_end = t_start;
  double open_cpu = process_cpu_s(), last_cpu = open_cpu;
  CpuTicks open_ticks = read_cpu_ticks();
  const auto close_slice = [&] {
    const CpuTicks ticks = read_cpu_ticks();
    open.seconds = static_cast<double>(last_end - open_start) / 1e9;
    open.cpu_s = last_cpu - open_cpu;
    open.steal_share = steal_share(open_ticks, ticks);
    w.slices.push_back(open);
    open = Slice{};
    open_start = last_end;
    open_cpu = last_cpu;
    open_ticks = ticks;
  };
  for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
    const std::size_t b = static_cast<std::size_t>(i % bundles.size());
    const std::uint64_t t0 = now_ns();
    const std::uint64_t fp = run_bundle(shared, bundles[b], 2, traced ? &w.spans : nullptr);
    const std::uint64_t t1 = now_ns();
    const auto index = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(slices - 1, (t1 - t_start) / slice_ns));
    while (open_index < index) {
      close_slice();
      ++open_index;
    }
    ++w.attempted;
    if (fp == reference[b]) {
      ++w.ok;
      open.ops += 1.0;
      w.latency.push_back({index, static_cast<double>(t1 - t0) / 1e3});
    } else {
      ++w.wrong;
    }
    last_end = t1;
    last_cpu = process_cpu_s();
    if (i == 0) w.threads = read_proc(::getpid()).threads;
  }
  close_slice();
  w.window_s = static_cast<double>(now_ns() - t_start) / 1e9;
  w.fig = window_figures(w.slices, w.latency);
  return w;
}

JsonObject window_detail(const EngineWindow& w) {
  JsonObject o = window_detail_json(w.fig, w.window_s);
  o.integer("attempted", w.attempted)
      .integer("ok", w.ok)
      .integer("wrong_bits", w.wrong)
      .integer("loadgen_threads", static_cast<std::uint64_t>(w.threads));
  return o;
}

}  // namespace

JsonObject run_engine(const EngineConfig& cfg, bool& correct) {
  // One set-up: input build plus the 1-thread reference run.  Half the
  // set-ups run before the window (the last one's inputs are measured) and
  // half after it; every one must reproduce the same reference.
  std::unique_ptr<EngineShared> shared;
  std::vector<EngineBundle> bundles;
  std::vector<std::uint64_t> reference;
  SetupReps setup;
  bool stable_reference = true;
  const auto set_up = [&] {
    setup.begin();
    auto next_shared = std::make_unique<EngineShared>();
    std::vector<EngineBundle> next_bundles = make_engine_bundles(*next_shared, cfg.seed);
    std::vector<std::uint64_t> next_reference;
    for (const EngineBundle& b : next_bundles) {
      next_reference.push_back(run_bundle(*next_shared, b, 1, nullptr));
    }
    setup.end();
    if (!reference.empty() && next_reference != reference) stable_reference = false;
    shared = std::move(next_shared);
    bundles = std::move(next_bundles);
    reference = std::move(next_reference);
  };
  const unsigned reps_before = (cfg.setup_reps + 1) / 2;
  for (unsigned r = 0; r < reps_before; ++r) set_up();

  Fingerprint digest;
  if (cfg.seed == kDefaultSeed) {
    for (const std::uint64_t fp : reference) digest.u64(fp);
  } else {
    for (const EngineBundle& b : make_engine_bundles(*shared, kDefaultSeed)) {
      digest.u64(run_bundle(*shared, b, 1, nullptr));
    }
  }

  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  std::string why;
  const auto need = [&](bool cond, const std::string& what) {
    if (!cond) why += (why.empty() ? "" : "; ") + what;
    return cond;
  };
  // A traced run measures an untraced and a traced window of half the
  // length each; their difference is the tracing overhead.
  const double window_s = cfg.traced ? cfg.seconds / 2.0 : cfg.seconds;
  const EngineWindow plain = run_window(*shared, bundles, reference, window_s, false);
  const double peak_rss_mb = read_proc(::getpid()).vm_hwm_mb;
  for (unsigned r = reps_before; r < cfg.setup_reps; ++r) set_up();
  correct = need(stable_reference, "1-thread reference differs between set-ups");
  correct = need(plain.wrong == 0, "2-thread results differ from the 1-thread reference") &&
            correct;
  correct = need(!plain.latency.empty(), "no completed bundles") && correct;
  correct = need(plain.threads >= 1 && static_cast<unsigned>(plain.threads) <= nproc,
                 "engine process exceeds nproc threads") &&
            correct;

  JsonObject report;
  report.str("workload", workload_name(Workload::EngineSweep))
      .integer("seed", cfg.seed)
      .boolean("traced", cfg.traced)
      .str("digest", digest.hex())
      .integer("bundles", bundles.size())
      .obj("e2e", end_to_end_json(plain.fig,
                                  static_cast<double>(plain.ok) /
                                      static_cast<double>(std::max<std::uint64_t>(
                                          plain.attempted, 1)),
                                  setup.median_quiet(), peak_rss_mb))
      .obj("detail", window_detail(plain).str("setup_reps_s_at_steal", setup.text()));
  std::uint64_t attempted = plain.attempted;
  std::uint64_t failed = plain.wrong;

  if (cfg.traced) {
    const EngineWindow tr = run_window(*shared, bundles, reference, window_s, true);
    correct = need(tr.wrong == 0, "traced results differ from the 1-thread reference") &&
              correct;
    attempted += tr.attempted;
    failed += tr.wrong;
    const double n = static_cast<double>(tr.attempted);
    const auto mean_us = [&](std::uint64_t total_ns) {
      return n > 0 ? static_cast<double>(total_ns) / n / 1e3 : 0.0;
    };
    const auto per_s = [&](double items, std::uint64_t total_ns) {
      return total_ns > 0 ? items * n / (static_cast<double>(total_ns) / 1e9) : 0.0;
    };
    std::vector<kits::ProcessKit> kit_list;
    for (const EngineBundle& b : bundles) kit_list.push_back(b.kit);
    const OptionalStageTimes optional = time_optional_stages(kit_list);
    const ProcSample self = read_proc(::getpid());
    const double cells = static_cast<double>(bundles.front().grid.cell_count());

    JsonObject layers;
    for (const char* name :
         {"serve.socket.wire_us", "serve.socket.connects", "serve.socket.connect_us",
          "serve.socket.write_frame_us", "serve.socket.read_frame_us",
          "serve.protocol.probe_us", "serve.protocol.parse_us", "serve.protocol.cache_key_us",
          "kits.kit_json.parse_us", "serve.service.parse_us", "serve.service.queue_wait_us",
          "serve.service.cache_us", "serve.service.evaluate_us", "serve.service.serialize_us",
          "serve.service.unattributed_us", "serve.service.total_us",
          "common.jsonfmt.numbers_per_op", "common.jsonfmt.number_ns",
          "serve.cache.hit_ratio", "serve.cache.misses", "serve.cache.evictions",
          "serve.cache.miss_us", "serve.journal.append_us", "serve.journal.bytes_per_op",
          "serve.journal.records_per_op"}) {
      layers.num(name, 0.0);  // no serve layer runs on this workload
    }
    layers.num("core.evaluate_us", mean_us(tr.spans.evaluate))
        .num("core.evaluate.points_per_s",
             per_s(static_cast<double>(kEvaluatePoints), tr.spans.evaluate))
        .num("core.compile_us", mean_us(tr.spans.compile))
        .num("core.scenario_grid.cells_per_s", per_s(cells, tr.spans.grid))
        .num("kits.fleet_us", mean_us(tr.spans.fleet))
        .num("rf.tolerance.samples_per_s",
             per_s(static_cast<double>(kToleranceSamples), tr.spans.tolerance))
        .num("core.partition_us", mean_us(tr.spans.partition))
        .num("core.pareto_us", optional.pareto_us)
        .num("core.sensitivity_us", optional.sensitivity_us)
        .num("daemon.threads_end", static_cast<double>(self.threads))
        .num("daemon.vmsize_mb_end", self.vm_size_mb)
        .num("trace_overhead.latency_p50_us", tr.fig.p50_us - plain.fig.p50_us)
        .num("trace_overhead.cpu_us_per_op", tr.fig.cpu_us_per_op - plain.fig.cpu_us_per_op)
        .num("trace_overhead.ops_per_s", tr.fig.ops_per_s - plain.fig.ops_per_s);
    report.obj("layers", layers).obj("traced_detail", window_detail(tr));
  }
  report.integer("attempted", attempted)
      .integer("failed", failed)
      .boolean("correct", correct)
      .str("why", why);
  return report;
}

}  // namespace perfbench
