#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t draw_key(std::uint64_t seed, std::uint64_t stream, std::uint64_t n) {
  return mix64(mix64(mix64(seed) ^ stream) ^ n);
}

double unit_double(std::uint64_t key) {
  return static_cast<double>(key >> 11) * (1.0 / 9007199254740992.0);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

TailPercentile highest_supported_percentile(const std::vector<double>& sorted,
                                            std::size_t min_beyond) {
  static const double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
  TailPercentile best;
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(sorted.size(), p);
    if (beyond < min_beyond) break;
    best.p = p;
    best.value = percentile_sorted(sorted, p);
    best.beyond = beyond;
  }
  return best;
}

void Fingerprint::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Fingerprint::text(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Fingerprint::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Fingerprint::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

ProcSample read_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream status(base + "/status");
  if (!status) return s;
  std::string line;
  while (std::getline(status, line)) {
    const auto kb = [&](const char* key) {
      return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
    };
    if (line.rfind("VmHWM:", 0) == 0) s.vm_hwm_mb = kb("VmHWM:");
    if (line.rfind("VmSize:", 0) == 0) s.vm_size_mb = kb("VmSize:");
    if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::strtol(line.c_str() + 8, nullptr, 10);
    }
  }
  std::ifstream stat(base + "/stat");
  std::string all;
  std::getline(stat, all);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return s;
  std::istringstream rest(all.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  s.cpu_s = (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  s.ok = true;
  return s;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t slice_count(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::floor(seconds)));
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line
  std::uint64_t v = 0;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total ? static_cast<double>(to.steal - from.steal) /
                                     static_cast<double>(to.total - from.total)
                               : 0.0;
}

std::vector<bool> quiet_slices(const std::vector<Slice>& slices) {
  const std::size_t ramp = slices.size() >= 3 ? 1 : 0;
  std::vector<double> steal;
  for (std::size_t i = ramp; i < slices.size(); ++i) steal.push_back(slices[i].steal_share);
  std::sort(steal.begin(), steal.end());
  const std::size_t keep = (steal.size() + 2) / 3;
  const double limit = std::max(0.01, keep > 0 ? steal[keep - 1] : 0.0);
  std::vector<bool> quiet;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    quiet.push_back(i >= ramp && slices[i].steal_share <= limit);
  }
  return quiet;
}

WindowFigures window_figures(const std::vector<Slice>& slices,
                             const std::vector<LatencySample>& samples) {
  WindowFigures f;
  const std::vector<bool> quiet = quiet_slices(slices);
  std::vector<double> rates, cpu, quiet_us;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    f.steal_share += slices[i].steal_share / static_cast<double>(slices.size());
    f.slices_text += (i > 0 ? " " : "") +
                     ipass::strf("%.1f@%.4f", slices[i].seconds > 0.0
                                                  ? slices[i].ops / slices[i].seconds
                                                  : 0.0,
                                 slices[i].steal_share);
    if (!quiet[i] || slices[i].seconds <= 0.0) continue;
    ++f.quiet;
    f.quiet_steal_share += slices[i].steal_share;
    rates.push_back(slices[i].ops / slices[i].seconds);
    if (slices[i].ops > 0.0) cpu.push_back(slices[i].cpu_s * 1e6 / slices[i].ops);
  }
  if (f.quiet > 0) f.quiet_steal_share /= static_cast<double>(f.quiet);
  for (const LatencySample& s : samples) {
    f.all_us.push_back(s.us);
    if (s.slice < quiet.size() && quiet[s.slice]) quiet_us.push_back(s.us);
  }
  std::sort(f.all_us.begin(), f.all_us.end());
  std::sort(quiet_us.begin(), quiet_us.end());
  f.ops_per_s = median(rates);
  f.cpu_us_per_op = median(cpu);
  f.p50_us = percentile_sorted(quiet_us, 50.0);
  f.p90_us = percentile_sorted(quiet_us, 90.0);
  f.quiet_samples = quiet_us.size();
  return f;
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  fields_.emplace_back(key, std::isfinite(v) ? ipass::json_number(v) : "null");
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, "\"" + ipass::json_escape(v) + "\"");
  return *this;
}

JsonObject& JsonObject::obj(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.text());
  return *this;
}

void SetupReps::begin() {
  start_ticks_ = read_cpu_ticks();
  start_ns_ = now_ns();
}

void SetupReps::end() {
  const std::uint64_t done = now_ns();
  seconds_.push_back(static_cast<double>(done - start_ns_) / 1e9);
  if (done - start_ns_ < kSetupBlockNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSetupBlockNs - (done - start_ns_)));
  }
  Slice block;
  block.steal_share = steal_share(start_ticks_, read_cpu_ticks());
  blocks_.push_back(block);
}

double SetupReps::median_quiet() const {
  const std::vector<bool> quiet = quiet_slices(blocks_);
  std::vector<double> kept;
  for (std::size_t i = 0; i < seconds_.size(); ++i) {
    if (quiet[i]) kept.push_back(seconds_[i]);
  }
  return median(kept);
}

std::string SetupReps::text() const {
  std::string out;
  for (std::size_t i = 0; i < seconds_.size(); ++i) {
    out += (out.empty() ? "" : " ") + ipass::json_number(seconds_[i]) + "@" +
           ipass::json_number(blocks_[i].steal_share);
  }
  return out;
}

JsonObject end_to_end_json(const WindowFigures& f, double ok_share, double setup_s,
                           double peak_rss_mb) {
  JsonObject o;
  o.num("ops_per_s", f.ops_per_s)
      .num("latency_p50_us", f.p50_us)
      .num("latency_p90_us", f.p90_us)
      .num("cpu_us_per_op", f.cpu_us_per_op)
      .num("ok_share", ok_share)
      .num("setup_s", setup_s)
      .num("peak_rss_mb", peak_rss_mb);
  return o;
}

JsonObject window_detail_json(const WindowFigures& f, double window_s) {
  const TailPercentile tail = highest_supported_percentile(f.all_us);
  JsonObject o;
  o.num("window_s", window_s)
      .integer("samples", f.all_us.size())
      .integer("quiet_samples", f.quiet_samples)
      .integer("quiet_slices", f.quiet)
      .num("steal_share", f.steal_share)
      .num("quiet_steal_share", f.quiet_steal_share)
      .num("all_latency_p50_us", percentile_sorted(f.all_us, 50.0))
      .num("all_latency_p99_us", percentile_sorted(f.all_us, 99.0))
      .integer("all_latency_p99_beyond", samples_beyond(f.all_us.size(), 99.0))
      .num("all_latency_tail_percentile", tail.p)
      .num("all_latency_tail_us", tail.value)
      .integer("all_latency_tail_beyond", tail.beyond)
      .str("slices_ops_per_s_at_steal", f.slices_text);
  return o;
}

std::string JsonObject::text() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ipass::json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
