// Shared pieces of the benchmark program: the seeded counter-based RNG the
// generators draw from, the percentile rule, the output fingerprint hash,
// /proc probes and a small JSON object writer for the report.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ random
// splitmix64 finalizer: a bijective 64-bit mix.  Every generator draw is
// mix(key) of an explicit key, so inputs are a pure function of
// (workload, seed, position) and independent of call order.
std::uint64_t mix64(std::uint64_t x);

// Key of draw `n` on stream `stream` for `seed`.
std::uint64_t draw_key(std::uint64_t seed, std::uint64_t stream, std::uint64_t n);

// Uniform double in [0, 1) from a 64-bit key (top 53 bits).
double unit_double(std::uint64_t key);

// Sequential generator for building seeded inputs (each instance is its own
// stream; the same (seed, stream) always yields the same sequence).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) : seed_(seed), stream_(stream) {}
  std::uint64_t next() { return draw_key(seed_, stream_, n_++); }
  double uniform() { return unit_double(next()); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t n_ = 0;
};

// ------------------------------------------------------------- percentiles
// Nearest-rank percentile of an ascending sample (p in (0, 100]).
double percentile_sorted(const std::vector<double>& sorted, double p);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

struct TailPercentile {
  double p = 0.0;           // 0 when no ladder rung qualifies
  double value = 0.0;
  std::size_t beyond = 0;   // samples beyond it
};

// The highest rung of the ladder 50, 90, 99, 99.9, 99.99, 99.999 that has
// at least `min_beyond` samples beyond it.
TailPercentile highest_supported_percentile(const std::vector<double>& sorted,
                                            std::size_t min_beyond = 10);

// -------------------------------------------------------------- fingerprint
// FNV-1a 64 over a byte stream; doubles enter by their bit pattern, so two
// fingerprints agree only when every bit agrees.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t size);
  void text(const std::string& s);  // length-prefixed
  void u64(std::uint64_t v);
  void f64(double v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------- /proc
struct ProcSample {
  bool ok = false;
  double vm_hwm_mb = 0.0;
  double vm_size_mb = 0.0;
  long threads = 0;
  double cpu_s = 0.0;  // utime + stime, all threads (live and exited)
};

ProcSample read_proc(pid_t pid);

// Process CPU time of the calling process (all threads), nanosecond clock.
double process_cpu_s();

// ---------------------------------------------------------------- timing
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values);

// ----------------------------------------------------------- window slices
// The timed window is cut into slices of about one second.  On a shared
// virtual machine the hypervisor withholds CPU ("steal") in bursts of a
// few seconds, and a slice with heavy steal measures the host, not the
// program.  The end-to-end timing figures are therefore taken over the
// quiet slices only (see quiet_slices), as medians.
std::size_t slice_count(double seconds);

// Steal and total jiffies of all CPUs, from /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
double steal_share(const CpuTicks& from, const CpuTicks& to);

struct Slice {
  double seconds = 0.0;      // measured length
  double ops = 0.0;          // ops completed and correct in the slice
  double cpu_s = 0.0;        // CPU the measured process used in the slice
  double steal_share = 0.0;  // host steal share over the slice
};

// A completed op's latency, tagged with the slice it ended in.
struct LatencySample {
  std::uint32_t slice;
  double us;
};

// The quiet slices: the third of the slices with the least steal, plus
// every slice at or below 1% steal (so on a quiet host, every slice).  The
// first slice is the ramp after warm-up and is never quiet when there are
// at least three.  Set-up repetitions are selected by the same rule.
std::vector<bool> quiet_slices(const std::vector<Slice>& slices);

struct WindowFigures {
  double ops_per_s = 0.0;      // median over quiet slices
  double cpu_us_per_op = 0.0;  // median over quiet slices
  double p50_us = 0.0;         // over the quiet slices' samples
  double p90_us = 0.0;
  std::size_t quiet = 0;
  std::size_t quiet_samples = 0;
  double steal_share = 0.0;        // mean over all slices
  double quiet_steal_share = 0.0;  // mean over the quiet slices
  std::vector<double> all_us;      // every sample, ascending
  std::string slices_text;         // "ops_per_s@steal" per slice, in order
};

WindowFigures window_figures(const std::vector<Slice>& slices,
                             const std::vector<LatencySample>& samples);

// Repeated set-up timings.  Each repetition runs in a block of at least
// kSetupBlockNs, so the repetitions sample the host over seconds rather
// than one instant, and each carries the steal share of its block.  The
// reported figure is the median over the quiet repetitions (the
// quiet_slices rule).
inline constexpr std::uint64_t kSetupBlockNs = 200'000'000;

class SetupReps {
 public:
  // Call before a repetition starts.
  void begin();
  // Call when it is done: records its time, waits out the block, then
  // records the block's steal share.
  void end();
  double median_quiet() const;
  std::string text() const;  // "seconds@steal ..." for the report

 private:
  std::uint64_t start_ns_ = 0;
  CpuTicks start_ticks_;
  std::vector<double> seconds_;
  std::vector<Slice> blocks_;
};

class JsonObject;

// The end-to-end metrics of a window, by their BENCHMARK.json names.
JsonObject end_to_end_json(const WindowFigures& f, double ok_share, double setup_s,
                           double peak_rss_mb);

// Latency and slice diagnostics of a window: p99 and the highest supported
// percentile with their sample counts, steal shares, slice counts.
JsonObject window_detail_json(const WindowFigures& f, double window_s);

// ---------------------------------------------------------------- report
// Insertion-ordered JSON object writer (numbers %.17g).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::uint64_t v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& obj(const std::string& key, const JsonObject& v);
  std::string text() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
