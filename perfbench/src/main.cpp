// ipass_perfbench: one run of one benchmark workload.
//
//   ipass_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--serve-bin PATH] [--tmp-dir DIR]
//
// Prints one JSON report line (end-to-end metrics under "e2e", per-layer
// metrics under "layers" when traced, the output digest, the accounting
// checks).  run.py turns it into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "engine_sweep.hpp"
#include "serve_load.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ipass_perfbench --workload hot_cached|inline_journaled|engine_sweep "
               "--seed N --seconds S --trace 0|1 [--serve-bin PATH] [--tmp-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg, serve_bin, tmp_dir = ".";
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload_arg = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--serve-bin") serve_bin = value;
    else if (flag == "--tmp-dir") tmp_dir = value;
    else return usage();
  }
  perfbench::Workload workload;
  if ((argc - 1) % 2 != 0 || !perfbench::parse_workload(workload_arg, workload) ||
      !(seconds > 0.0)) {
    return usage();
  }
  // Set-up is repeated and its median reported; the cheaper the set-up,
  // the more repetitions it takes to make that median steady.
  const unsigned setup_reps = workload == perfbench::Workload::InlineJournaled ? 9 : 15;
  try {
    bool correct = false;
    perfbench::JsonObject report;
    if (workload == perfbench::Workload::EngineSweep) {
      perfbench::EngineConfig cfg;
      cfg.seed = seed;
      cfg.seconds = seconds;
      cfg.traced = traced;
      cfg.setup_reps = setup_reps;
      report = perfbench::run_engine(cfg, correct);
    } else {
      if (serve_bin.empty()) return usage();
      perfbench::ServeConfig cfg;
      cfg.workload = workload;
      cfg.seed = seed;
      cfg.seconds = seconds;
      cfg.traced = traced;
      cfg.serve_binary = serve_bin;
      cfg.tmp_dir = tmp_dir;
      cfg.setup_reps = setup_reps;
      report = perfbench::run_serve(cfg, correct);
    }
    std::printf("%s\n", report.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipass_perfbench: %s\n", e.what());
    return 1;
  }
}
