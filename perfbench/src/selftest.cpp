// Self-tests of the benchmark program: the percentile rule, the quiet-slice
// rule, seeded generator reproducibility, the byte-exact output checker,
// the reconnect cadence and the load generator's thread and connection
// budget.
//
//   perfbench_selftest [--serve-bin PATH --tmp-dir DIR]
//
// With --serve-bin, the budget test also drives a short live run against
// that ipass_serve binary, journaling into DIR.  Exits 0 when every check
// passes.
#include <cstdio>
#include <string>
#include <thread>

#include "engine_sweep.hpp"
#include "serve_load.hpp"

namespace {

int g_failures = 0;

void check(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentile_rule() {
  using perfbench::highest_supported_percentile;
  check(perfbench::percentile_sorted(one_to(100), 50.0) == 50.0, "p50 of 1..100 is 50");
  check(perfbench::percentile_sorted(one_to(100), 90.0) == 90.0, "p90 of 1..100 is 90");
  check(perfbench::samples_beyond(100, 90.0) == 10, "10 samples beyond p90 of 100");
  const auto t100 = highest_supported_percentile(one_to(100));
  check(t100.p == 90.0 && t100.beyond == 10 && t100.value == 90.0,
        "100 samples support p90, not p99");
  const auto t999 = highest_supported_percentile(one_to(999));
  check(t999.p == 90.0, "999 samples support p90 only (p99 has 9 beyond)");
  const auto t1000 = highest_supported_percentile(one_to(1000));
  check(t1000.p == 99.0 && t1000.beyond == 10 && t1000.value == 990.0,
        "1000 samples support p99 with 10 beyond");
  const auto t100k = highest_supported_percentile(one_to(100000));
  check(t100k.p == 99.99 && t100k.beyond == 10, "100000 samples support p99.99");
  check(highest_supported_percentile(one_to(19)).p == 0.0, "19 samples support no rung");
}

void test_quiet_slices() {
  std::vector<perfbench::Slice> calm(9);
  for (std::size_t i = 0; i < calm.size(); ++i) calm[i] = {1.0, 100.0 + i, 0.5, 0.004};
  std::size_t kept = 0;
  for (const bool q : perfbench::quiet_slices(calm)) kept += q ? 1 : 0;
  check(kept == 8, "on a quiet host every slice but the ramp is kept");

  std::vector<perfbench::Slice> noisy(9);
  const double steal[9] = {0.20, 0.02, 0.15, 0.03, 0.30, 0.25, 0.02, 0.12, 0.18};
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    noisy[i] = {1.0, steal[i] > 0.05 ? 50.0 : 100.0, 0.5, steal[i]};
  }
  const std::vector<bool> quiet = perfbench::quiet_slices(noisy);
  check(quiet[1] && quiet[3] && quiet[6] && !quiet[0] && !quiet[4],
        "the third of the slices with the least steal is kept");
  const std::vector<perfbench::LatencySample> samples = {{0, 900.0}, {1, 10.0}, {3, 20.0},
                                                         {4, 800.0}, {6, 30.0}};
  const perfbench::WindowFigures f = perfbench::window_figures(noisy, samples);
  check(f.quiet == 3 && f.ops_per_s == 100.0 && f.p50_us == 20.0 && f.all_us.size() == 5,
        "figures come from the quiet slices' ops and samples");
}

void test_generator_reproducibility() {
  using perfbench::Workload;
  for (const Workload w : {Workload::HotCached, Workload::InlineJournaled}) {
    const perfbench::RequestPool a = perfbench::make_request_pool(w, 7);
    const perfbench::RequestPool b = perfbench::make_request_pool(w, 7);
    const perfbench::RequestPool c = perfbench::make_request_pool(w, 8);
    check(a.texts == b.texts && a.kit_texts == b.kit_texts,
          "same seed gives the same request pool");
    check(a.texts != c.texts, "another seed gives another request pool");
    bool same_draws = true, other_draws = false;
    for (std::uint64_t n = 0; n < 2000; ++n) {
      same_draws &= perfbench::draw_request(a, 7, 1, n) == perfbench::draw_request(b, 7, 1, n);
      other_draws |= perfbench::draw_request(a, 7, 1, n) != perfbench::draw_request(a, 8, 1, n);
    }
    check(same_draws, "same seed gives the same draw sequence");
    check(other_draws, "another seed gives another draw sequence");
  }
  const perfbench::RequestPool inl =
      perfbench::make_request_pool(Workload::InlineJournaled, 3);
  check(inl.kit_texts.size() == perfbench::kInlineKits, "inline pool holds 32 kits");
  std::size_t kb = 0;
  for (const std::string& k : inl.kit_texts) kb += k.size();
  check(kb / inl.kit_texts.size() > 1500, "inline kits are ~2 kB documents");
  std::vector<std::size_t> per_kit(perfbench::kInlineKits, 0);
  for (std::uint64_t n = 0; n < 20000; ++n) {
    ++per_kit[inl.kit_of_text[perfbench::draw_request(inl, 3, 0, n)]];
  }
  check(per_kit[0] > per_kit[7] && per_kit[7] > per_kit[31], "kit draws are Zipf-skewed");

  const perfbench::EngineShared shared;
  const auto e1 = perfbench::make_engine_bundles(shared, 5);
  const auto e2 = perfbench::make_engine_bundles(shared, 5);
  const auto e3 = perfbench::make_engine_bundles(shared, 6);
  check(perfbench::run_bundle(shared, e1[0], 1, nullptr) ==
            perfbench::run_bundle(shared, e2[0], 1, nullptr),
        "same seed gives the same engine bundle results");
  check(perfbench::run_bundle(shared, e1[0], 1, nullptr) !=
            perfbench::run_bundle(shared, e3[0], 1, nullptr),
        "another seed gives another engine bundle");
  check(perfbench::run_bundle(shared, e1[1], 2, nullptr) ==
            perfbench::run_bundle(shared, e1[1], 1, nullptr),
        "2-thread bundle matches the 1-thread reference");
}

void test_checker() {
  perfbench::RequestPool pool;
  pool.texts = {R"({"id": "t1", "kit_name": "mcm-d-si-ip"})",
                R"({"id": "t2", "kit_name": "ltcc-ceramic", "pareto": true})"};
  const perfbench::ReferenceSet ref = perfbench::build_reference(pool);
  check(ref.errors == 0, "reference answers both requests");
  using perfbench::Verdict;
  check(perfbench::classify(ref, 1, true, ref.responses[1]) == Verdict::Ok,
        "identical response passes");
  for (const std::size_t at : {std::size_t{0}, ref.responses[1].size() / 2,
                               ref.responses[1].size() - 1}) {
    std::string flipped = ref.responses[1];
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    check(perfbench::classify(ref, 1, true, flipped) == Verdict::Wrong,
          "one flipped response byte is caught");
  }
  check(perfbench::classify(ref, 0, true, ref.responses[1]) == Verdict::Wrong,
        "another request's response is caught");
  check(perfbench::classify(ref, 0, false, ref.responses[0]) == Verdict::Failed,
        "a transport failure is a failure");
  check(perfbench::pool_digest(pool, ref) != [&] {
    perfbench::ReferenceSet changed = ref;
    changed.responses[0].back() = ' ';
    return perfbench::pool_digest(pool, changed);
  }(), "a changed response byte changes the digest");
}

void test_reconnect_cadence() {
  const perfbench::LoadPlan plan = perfbench::load_plan(perfbench::Workload::InlineJournaled);
  check(plan.reconnect_every == 64, "inline_journaled reconnects every 64 requests");
  std::uint64_t served = 0, connects = 0;
  for (std::uint64_t n = 0; n < 1000; ++n) {
    if (perfbench::reconnect_before(plan, served)) {
      ++connects;
      served = 0;
    }
    ++served;
  }
  check(connects == (1000 - 1) / 64, "1000 requests make 15 reconnects");
  const perfbench::LoadPlan hot = perfbench::load_plan(perfbench::Workload::HotCached);
  bool never = true;
  for (std::uint64_t s = 0; s < 10000; ++s) never &= !perfbench::reconnect_before(hot, s);
  check(never, "hot_cached connections are persistent");
}

void test_budget(const std::string& serve_bin, const std::string& tmp_dir) {
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  for (const auto w : {perfbench::Workload::HotCached, perfbench::Workload::InlineJournaled}) {
    const perfbench::LoadPlan plan = perfbench::load_plan(w);
    check(plan.connections + 1 <= nproc,
          "client threads plus the main thread fit in nproc");
  }
  if (serve_bin.empty()) return;
  perfbench::ServeConfig cfg;
  cfg.workload = perfbench::Workload::InlineJournaled;
  cfg.seed = 11;
  cfg.seconds = 0.5;
  cfg.serve_binary = serve_bin;
  cfg.tmp_dir = tmp_dir;
  cfg.setup_reps = 1;
  bool correct = false;
  const std::string report = perfbench::run_serve(cfg, correct).text();
  check(correct, "live inline_journaled run passes its checks (thread, connection, "
                 "cadence and accounting budget included)");
  if (!correct) std::printf("%s\n", report.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string serve_bin, tmp_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--serve-bin") serve_bin = argv[i + 1];
    if (std::string(argv[i]) == "--tmp-dir") tmp_dir = argv[i + 1];
  }
  test_percentile_rule();
  test_quiet_slices();
  test_generator_reproducibility();
  test_checker();
  test_reconnect_cadence();
  test_budget(serve_bin, tmp_dir);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
