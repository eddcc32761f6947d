#include "serve_load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "common/jsonfmt.hpp"
#include "kits/kit_json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "engine_sweep.hpp"

extern char** environ;

namespace perfbench {

namespace serve = ipass::serve;
namespace kits = ipass::kits;
namespace core = ipass::core;

// ------------------------------------------------------------ reference

ReferenceSet build_reference(const RequestPool& pool) {
  serve::ServiceOptions options;  // ipass_serve's defaults, one worker
  options.workers = 1;
  serve::AssessmentService service(options);
  ReferenceSet ref;
  ref.responses.reserve(pool.texts.size());
  for (const std::string& text : pool.texts) {
    ref.responses.push_back(service.handle(text));
    if (ref.responses.back().find("\"status\": \"ok\"") == std::string::npos) ++ref.errors;
  }
  return ref;
}

std::string pool_digest(const RequestPool& pool, const ReferenceSet& reference) {
  Fingerprint fp;
  for (std::size_t i = 0; i < pool.texts.size(); ++i) {
    fp.text(pool.texts[i]);
    fp.text(reference.responses[i]);
  }
  return fp.hex();
}

Verdict classify(const ReferenceSet& reference, std::size_t index, bool transport_ok,
                 const std::string& response) {
  if (!transport_ok) return Verdict::Failed;
  return response == reference.responses[index] ? Verdict::Ok : Verdict::Wrong;
}

namespace {

// --------------------------------------------------------------- daemon

// A spawned ipass_serve.  The constructor returns once the daemon printed
// its "listening on" line; the destructor kills a daemon still running and
// always reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  // SIGTERM, then wait for the graceful drain; true when it exited 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args) {
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  if (rc != 0) {
    ::close(pipefd[0]);
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  out_fd_ = pipefd[0];

  // Wait (bounded) for "listening on 127.0.0.1:<port>\n".
  const std::string marker = "listening on 127.0.0.1:";
  std::string seen;
  const std::uint64_t give_up = now_ns() + 20'000'000'000ULL;
  for (;;) {
    const std::size_t at = seen.find(marker);
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::strtoul(seen.c_str() + at + marker.size(),
                                                      nullptr, 10));
      break;
    }
    const std::uint64_t now = now_ns();
    pollfd pfd{out_fd_, POLLIN, 0};
    const int wait_ms = now >= give_up ? 0 : static_cast<int>((give_up - now) / 1'000'000);
    char buf[512];
    const ssize_t got = ::poll(&pfd, 1, wait_ms) > 0 ? ::read(out_fd_, buf, sizeof buf) : 0;
    if (got <= 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      ::close(out_fd_);
      out_fd_ = -1;
      throw std::runtime_error("ipass_serve did not report a listening port");
    }
    seen.append(buf, static_cast<std::size_t>(got));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::uint64_t give_up = now_ns() + 30'000'000'000ULL;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (now_ns() >= give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Loopback connection with the library client's socket options; -1 on
// failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// One framed request/response on `fd`; false on any transport failure.
bool roundtrip(int fd, const std::string& request, std::string& response) {
  return fd >= 0 && serve::write_frame(fd, request) &&
         serve::read_frame(fd, response) == serve::FrameStatus::Ok;
}

// ------------------------------------------------------------ probes

const ipass::JsonValue* member(const ipass::JsonValue& v, const std::string& key) {
  for (const auto& kv : v.object) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

double number_at(const ipass::JsonValue& root, std::initializer_list<const char*> path) {
  const ipass::JsonValue* cur = &root;
  for (const char* key : path) {
    cur = member(*cur, key);
    if (cur == nullptr) return std::numeric_limits<double>::quiet_NaN();
  }
  return cur->number;
}

// Stats-probe counters (the daemon's own accounting).
struct StatsProbe {
  bool ok = false;
  double completed = 0, errors = 0, overloaded = 0;
  double hits = 0, misses = 0, waits = 0, evictions = 0;
  double journal_admits = 0, journal_commits = 0;
};

StatsProbe probe_stats(std::uint16_t port) {
  StatsProbe s;
  const int fd = connect_loopback(port);
  std::string response;
  const bool got = roundtrip(fd, "{\"kind\": \"stats\"}", response);
  if (fd >= 0) ::close(fd);
  if (!got) return s;
  try {
    const ipass::JsonValue v = ipass::parse_json(response, "stats probe");
    s.completed = number_at(v, {"completed"});
    s.errors = number_at(v, {"errors"});
    s.overloaded = number_at(v, {"overloaded"});
    s.hits = number_at(v, {"cache", "hits"});
    s.misses = number_at(v, {"cache", "misses"});
    s.waits = number_at(v, {"cache", "waits"});
    s.evictions = number_at(v, {"cache", "evictions"});
    s.journal_admits = number_at(v, {"journal", "admits"});
    s.journal_commits = number_at(v, {"journal", "commits"});
    s.ok = std::isfinite(s.completed) && std::isfinite(s.hits);
  } catch (const std::exception&) {
    s.ok = false;
  }
  return s;
}

// A --metrics JSON dump of the daemon's registry.
struct MetricsSnapshot {
  bool ok = false;
  ipass::JsonValue root;
  double count(const char* histogram) const {
    const double v = number_at(root, {"histograms", histogram, "count"});
    return std::isfinite(v) ? v : 0.0;
  }
  double sum_ns(const char* histogram) const {
    const double v = number_at(root, {"histograms", histogram, "sum_ns"});
    return std::isfinite(v) ? v : 0.0;
  }
};

MetricsSnapshot read_metrics(const std::string& path) {
  MetricsSnapshot m;
  std::ifstream in(path);
  if (!in) return m;
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    m.root = ipass::parse_json(buf.str(), "metrics dump");
    m.ok = true;
  } catch (const std::exception&) {
    m.ok = false;
  }
  return m;
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

// ------------------------------------------------------------ one phase

struct Span {
  std::uint64_t start_ns;
  std::uint32_t write_ns;
  std::uint32_t read_ns;
};

struct ClientState {
  unsigned conn = 0;
  int fd = -1;
  std::vector<LatencySample> latency;
  std::vector<Span> spans;  // traced phase only
  std::vector<std::uint64_t> draws;
  std::uint64_t attempted = 0, ok = 0, wrong = 0, failed = 0, error_responses = 0;
  std::uint64_t connects = 0, connect_ns = 0;
  std::atomic<std::uint64_t> ok_live{0};  // read by the slice sampler
};

struct PhaseOutput {
  SetupReps setup;
  double window_s = 0.0;
  std::vector<Slice> slices;  // daemon CPU per slice
  std::vector<LatencySample> latency;
  std::uint64_t attempted = 0, ok = 0, wrong = 0, failed = 0, error_responses = 0;
  std::uint64_t connects = 0, expected_connects = 0, connect_ns = 0;
  std::uint64_t warmup_requests = 0, warmup_mismatches = 0;
  double write_us = 0.0, read_us = 0.0, roundtrip_us = 0.0;
  std::vector<std::uint64_t> draws;
  StatsProbe s0, s1;
  ProcSample p0, p1;
  double journal_bytes = 0.0;
  long loadgen_threads = 0;
  unsigned connections = 0;
  MetricsSnapshot m0, m1;
  bool daemon_clean_exit = false;
};

struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::uint64_t start_ns = 0;
  std::uint64_t deadline_ns = 0;
  std::uint64_t slice_ns = 1;
  std::uint32_t slices = 1;
};

void client_loop(ClientState& c, const LoadPlan& plan, const RequestPool& pool,
                 const ReferenceSet& ref, std::uint64_t seed, std::uint16_t port,
                 bool traced, Gate& gate) {
  std::uint64_t start = 0, deadline = 0, slice_ns = 1;
  std::uint32_t slices = 1;
  {
    std::unique_lock<std::mutex> lk(gate.m);
    gate.cv.wait(lk, [&] { return gate.open; });
    start = gate.start_ns;
    deadline = gate.deadline_ns;
    slice_ns = gate.slice_ns;
    slices = gate.slices;
  }
  std::string response;
  std::uint64_t served = 0;  // on the current connection
  for (std::uint64_t n = 0; now_ns() < deadline; ++n) {
    if (c.fd < 0 || reconnect_before(plan, served)) {
      if (c.fd >= 0) ::close(c.fd);
      const std::uint64_t t0 = now_ns();
      c.fd = connect_loopback(port);
      c.connect_ns += now_ns() - t0;
      ++c.connects;
      served = 0;
      if (c.fd < 0) {
        ++c.attempted;
        ++c.failed;
        continue;
      }
    }
    const std::size_t idx = draw_request(pool, seed, c.conn, n);
    ++c.draws[idx];
    const std::string& text = pool.texts[idx];
    const std::uint64_t t0 = now_ns();
    bool ok = serve::write_frame(c.fd, text);
    const std::uint64_t t1 = now_ns();
    ok = ok && serve::read_frame(c.fd, response) == serve::FrameStatus::Ok;
    const std::uint64_t t2 = now_ns();
    ++c.attempted;
    ++served;
    switch (classify(ref, idx, ok, response)) {
      case Verdict::Ok:
        ++c.ok;
        c.ok_live.store(c.ok, std::memory_order_relaxed);
        c.latency.push_back({std::min(slices - 1, static_cast<std::uint32_t>((t2 - start) /
                                                                          slice_ns)),
                             static_cast<double>(t2 - t0) / 1e3});
        if (traced) {
          c.spans.push_back({t0, static_cast<std::uint32_t>(t1 - t0),
                             static_cast<std::uint32_t>(t2 - t1)});
        }
        break;
      case Verdict::Wrong:
        ++c.wrong;
        if (response.find("\"status\": \"error\"") != std::string::npos) ++c.error_responses;
        break;
      case Verdict::Failed:
        ++c.failed;
        ::close(c.fd);
        c.fd = -1;
        break;
    }
  }
}

std::vector<std::string> daemon_args(Workload workload, const std::string& journal,
                                     const std::string& metrics) {
  std::vector<std::string> args = {"--port", "0", "--workers", "2"};
  if (workload == Workload::InlineJournaled) {
    args.push_back("--journal");
    args.push_back(journal);
  }
  if (!metrics.empty()) {
    args.insert(args.end(), {"--metrics", metrics, "--metrics-interval-ms", "20", "--profile"});
  }
  return args;
}

PhaseOutput run_phase(const ServeConfig& cfg, const RequestPool& pool,
                      const ReferenceSet& ref, bool traced, unsigned reps,
                      double seconds) {
  PhaseOutput out;
  const LoadPlan plan = load_plan(cfg.workload);
  const std::string tag = traced ? "traced" : "plain";
  const std::string journal = cfg.tmp_dir + "/journal-" + tag + ".wal";
  const std::string metrics = traced ? cfg.tmp_dir + "/metrics-" + tag + ".json" : "";
  const std::vector<std::size_t> warmup = warmup_indices(cfg.workload, pool, cfg.seed);

  // One set-up: exec until health answers, then the warm-up pass.
  const auto set_up = [&]() {
    std::remove(journal.c_str());
    if (!metrics.empty()) std::remove(metrics.c_str());
    out.setup.begin();
    auto d = std::make_unique<Daemon>(cfg.serve_binary,
                                      daemon_args(cfg.workload, journal, metrics));
    const int fd = connect_loopback(d->port());
    std::string response;
    if (!roundtrip(fd, "{\"kind\": \"health\"}", response) ||
        response.find("\"status\": \"ok\"") == std::string::npos) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("ipass_serve health probe failed");
    }
    for (const std::size_t idx : warmup) {
      const bool ok = roundtrip(fd, pool.texts[idx], response);
      if (classify(ref, idx, ok, response) != Verdict::Ok) ++out.warmup_mismatches;
    }
    ::close(fd);
    out.setup.end();
    return d;
  };
  // Half the set-ups run before the window and half after it.  The last
  // daemon set up before the window is the one measured.
  const unsigned reps_before = (reps + 1) / 2;
  std::unique_ptr<Daemon> daemon;
  for (unsigned r = 0; r < reps_before; ++r) {
    if (daemon) daemon->stop();
    daemon = set_up();
  }
  out.warmup_requests = warmup.size();
  const std::uint16_t port = daemon->port();

  std::vector<ClientState> clients(plan.connections);
  out.connections = plan.connections;
  for (unsigned c = 0; c < plan.connections; ++c) {
    clients[c].conn = c;
    clients[c].fd = connect_loopback(port);
    clients[c].draws.assign(pool.texts.size(), 0);
    clients[c].latency.reserve(static_cast<std::size_t>(seconds * 40000.0));
    if (traced) clients[c].spans.reserve(static_cast<std::size_t>(seconds * 40000.0));
  }

  if (traced) {
    // The dumper writes every 20 ms; wait for a dump that covers the whole
    // warm-up so the window delta starts from a settled snapshot.
    for (int i = 0; i < 500; ++i) {
      out.m0 = read_metrics(metrics);
      if (out.m0.ok && out.m0.count("serve_request_total_ns") ==
                           static_cast<double>(out.warmup_requests)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  out.s0 = probe_stats(port);
  out.p0 = read_proc(daemon->pid());
  out.journal_bytes = -file_bytes(journal);

  const std::size_t slices = slice_count(seconds);
  const double slice_s = seconds / static_cast<double>(slices);
  Gate gate;
  std::vector<std::thread> threads;
  for (ClientState& c : clients) {
    threads.emplace_back(client_loop, std::ref(c), std::cref(plan), std::cref(pool),
                         std::cref(ref), cfg.seed, port, traced, std::ref(gate));
  }
  const std::uint64_t t_start = now_ns();
  {
    std::lock_guard<std::mutex> lk(gate.m);
    gate.open = true;
    gate.start_ns = t_start;
    gate.deadline_ns = t_start + static_cast<std::uint64_t>(seconds * 1e9);
    gate.slice_ns = static_cast<std::uint64_t>(slice_s * 1e9);
    gate.slices = static_cast<std::uint32_t>(slices);
  }
  gate.cv.notify_all();
  out.loadgen_threads = read_proc(::getpid()).threads;
  // Sample completed ops, daemon CPU and host steal at every slice
  // boundary.
  std::uint64_t ops_before = 0;
  std::uint64_t t_before = t_start;
  double cpu_before = out.p0.cpu_s;
  CpuTicks ticks_before = read_cpu_ticks();
  for (std::size_t k = 1; k <= slices; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t_start + static_cast<std::uint64_t>(k * slice_s * 1e9))));
    std::uint64_t ops = 0;
    for (const ClientState& c : clients) ops += c.ok_live.load(std::memory_order_relaxed);
    const double cpu = read_proc(daemon->pid()).cpu_s;
    const CpuTicks ticks = read_cpu_ticks();
    const std::uint64_t t = now_ns();
    out.slices.push_back({static_cast<double>(t - t_before) / 1e9,
                          static_cast<double>(ops - ops_before), cpu - cpu_before,
                          steal_share(ticks_before, ticks)});
    ops_before = ops;
    t_before = t;
    cpu_before = cpu;
    ticks_before = ticks;
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t t_end = now_ns();
  out.window_s = static_cast<double>(t_end - t_start) / 1e9;

  out.p1 = read_proc(daemon->pid());
  out.s1 = probe_stats(port);
  out.journal_bytes += file_bytes(journal);
  for (ClientState& c : clients) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  out.daemon_clean_exit = daemon->stop();
  daemon.reset();
  if (traced) out.m1 = read_metrics(metrics);
  for (unsigned r = reps_before; r < reps; ++r) set_up()->stop();
  if (traced) std::remove(metrics.c_str());
  std::remove(journal.c_str());

  std::uint64_t spans = 0;
  double write_ns = 0.0, read_ns = 0.0;
  out.draws.assign(pool.texts.size(), 0);
  for (const ClientState& c : clients) {
    out.latency.insert(out.latency.end(), c.latency.begin(), c.latency.end());
    out.attempted += c.attempted;
    out.ok += c.ok;
    out.wrong += c.wrong;
    out.failed += c.failed;
    out.error_responses += c.error_responses;
    out.connects += c.connects;
    out.connect_ns += c.connect_ns;
    out.expected_connects +=
        c.attempted > 0 && plan.reconnect_every > 0 ? (c.attempted - 1) / plan.reconnect_every
                                                    : 0;
    for (std::size_t i = 0; i < c.draws.size(); ++i) out.draws[i] += c.draws[i];
    for (const Span& s : c.spans) {
      write_ns += s.write_ns;
      read_ns += s.read_ns;
    }
    spans += c.spans.size();
  }
  if (spans > 0) {
    out.write_us = write_ns / static_cast<double>(spans) / 1e3;
    out.read_us = read_ns / static_cast<double>(spans) / 1e3;
    out.roundtrip_us = out.write_us + out.read_us;
  }
  return out;
}

// ------------------------------------------------------ direct layer timing

// Mean wall time of `fn` over `reps` calls, in nanoseconds.
template <typename Fn>
double time_ns(int reps, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  for (int r = 0; r < reps; ++r) fn();
  return static_cast<double>(now_ns() - t0) / reps;
}

// Numbers in a JSON text (every numeric token outside strings).
std::vector<double> json_numbers(const std::string& text) {
  std::vector<double> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      out.push_back(std::strtod(text.c_str() + i, &end));
      i = static_cast<std::size_t>(end - text.c_str()) - 1;
    }
  }
  return out;
}

struct LayerTimings {
  double probe_us = 0, parse_us = 0, cache_key_us = 0, kit_parse_us = 0;
  double numbers_per_op = 0, number_ns = 0;
};

LayerTimings time_layers(const RequestPool& pool, const ReferenceSet& ref,
                         const std::vector<std::uint64_t>& draws) {
  LayerTimings t;
  double weight = 0.0, number_weight = 0.0;
  std::vector<double> kit_parse_ns(pool.kit_texts.size(), -1.0);
  for (std::size_t i = 0; i < pool.texts.size(); ++i) {
    const double w = static_cast<double>(draws[i]);
    if (w == 0.0) continue;
    const std::string& text = pool.texts[i];
    volatile int sink = 0;
    t.probe_us += w * time_ns(20, [&] { sink = sink + static_cast<int>(serve::probe_kind(text)); });
    serve::AssessmentRequest request;
    t.parse_us += w * time_ns(5, [&] { request = serve::parse_request(text); });
    std::string key;
    t.cache_key_us += w * time_ns(5, [&] { key = serve::study_cache_key(request); });
    if (!pool.kit_texts.empty()) {
      double& k = kit_parse_ns[pool.kit_of_text[i]];
      if (k < 0.0) {
        const std::string& kit_text = pool.kit_texts[pool.kit_of_text[i]];
        k = time_ns(5, [&] { (void)kits::parse_kit_json(kit_text); });
      }
      t.kit_parse_us += w * k;
    }
    const std::vector<double> numbers = json_numbers(ref.responses[i]);
    std::string formatted;
    const double per_number =
        time_ns(5, [&] {
          for (const double v : numbers) formatted = ipass::json_number(v);
        }) / static_cast<double>(std::max<std::size_t>(numbers.size(), 1));
    t.numbers_per_op += w * static_cast<double>(numbers.size());
    t.number_ns += w * static_cast<double>(numbers.size()) * per_number;
    number_weight += w * static_cast<double>(numbers.size());
    weight += w;
  }
  if (weight > 0.0) {
    t.probe_us /= weight * 1e3;
    t.parse_us /= weight * 1e3;
    t.cache_key_us /= weight * 1e3;
    t.kit_parse_us /= weight * 1e3;
    t.numbers_per_op /= weight;
  }
  if (number_weight > 0.0) t.number_ns /= number_weight;

  return t;
}

struct E2e {
  WindowFigures fig;
  double error_share = 0, setup_s = 0, peak_rss_mb = 0;
};

E2e end_to_end(const PhaseOutput& ph) {
  E2e e;
  const double refused = ph.s1.overloaded - ph.s0.overloaded;
  e.fig = window_figures(ph.slices, ph.latency);
  e.error_share = ph.attempted > 0
                      ? (static_cast<double>(ph.failed + ph.wrong) + refused) /
                            static_cast<double>(ph.attempted)
                      : 1.0;
  e.setup_s = ph.setup.median_quiet();
  e.peak_rss_mb = ph.p1.vm_hwm_mb;
  return e;
}

JsonObject e2e_json(const E2e& e) {
  return end_to_end_json(e.fig, 1.0 - e.error_share, e.setup_s, e.peak_rss_mb);
}

JsonObject phase_detail(const PhaseOutput& ph, const E2e& e) {
  JsonObject o = window_detail_json(e.fig, ph.window_s);
  o.num("error_share", e.error_share)
      .integer("attempted", ph.attempted)
      .integer("ok", ph.ok)
      .integer("wrong_bytes", ph.wrong)
      .integer("failed", ph.failed)
      .num("refused", ph.s1.overloaded - ph.s0.overloaded)
      .str("setup_reps_s_at_steal", ph.setup.text())
      .integer("warmup_requests", ph.warmup_requests)
      .num("daemon_cpu_s", ph.p1.cpu_s - ph.p0.cpu_s)
      .num("daemon_vm_hwm_mb_start", ph.p0.vm_hwm_mb)
      .num("daemon_vm_size_mb_start", ph.p0.vm_size_mb)
      .num("daemon_vm_size_mb_end", ph.p1.vm_size_mb)
      .integer("daemon_threads_start", static_cast<std::uint64_t>(ph.p0.threads))
      .integer("daemon_threads_end", static_cast<std::uint64_t>(ph.p1.threads))
      .num("stats_completed", ph.s1.completed - ph.s0.completed)
      .num("stats_errors", ph.s1.errors - ph.s0.errors)
      .num("cache_hits", ph.s1.hits - ph.s0.hits)
      .num("cache_misses", ph.s1.misses - ph.s0.misses)
      .num("cache_waits", ph.s1.waits - ph.s0.waits)
      .num("cache_evictions", ph.s1.evictions - ph.s0.evictions)
      .num("journal_admits", ph.s1.journal_admits - ph.s0.journal_admits)
      .num("journal_commits", ph.s1.journal_commits - ph.s0.journal_commits)
      .num("journal_bytes", ph.journal_bytes)
      .integer("connects", ph.connects)
      .integer("loadgen_threads", static_cast<std::uint64_t>(ph.loadgen_threads))
      .integer("connections", ph.connections);
  return o;
}

// Accounting and output checks of one phase; appends failures to `why`.
bool phase_checks(const PhaseOutput& ph, std::string& why) {
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  bool ok = true;
  const auto need = [&](bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      why += (why.empty() ? "" : "; ") + what;
    }
  };
  need(ph.warmup_mismatches == 0, "warm-up responses differ from the reference");
  need(ph.wrong == 0, ipass::json_number(static_cast<double>(ph.wrong)) +
                          " responses differ from the reference");
  need(ph.failed == 0, "transport failures");
  need(ph.s0.ok && ph.s1.ok, "stats probe failed");
  need(ph.s1.overloaded == ph.s0.overloaded, "requests refused");
  need(ph.s1.completed - ph.s0.completed == static_cast<double>(ph.ok + ph.wrong),
       "stats probe completed count differs from the load generator's");
  need(ph.s1.errors - ph.s0.errors == static_cast<double>(ph.error_responses),
       "stats probe error count differs from the load generator's");
  need(ph.connects == ph.expected_connects, "reconnect cadence violated");
  need(ph.loadgen_threads >= 1 && static_cast<unsigned>(ph.loadgen_threads) <= nproc,
       "load generator exceeds nproc threads");
  need(ph.connections <= nproc, "load generator exceeds nproc connections");
  need(ph.daemon_clean_exit, "daemon did not drain and exit cleanly");
  need(ph.p0.ok && ph.p1.ok, "daemon /proc probe failed");
  need(!ph.latency.empty(), "no completed requests");
  return ok;
}

}  // namespace

JsonObject run_serve(const ServeConfig& cfg, bool& correct) {
  const RequestPool pool = make_request_pool(cfg.workload, cfg.seed);
  const std::uint64_t t_ref = now_ns();
  const ReferenceSet ref = build_reference(pool);
  const double reference_s = static_cast<double>(now_ns() - t_ref) / 1e9;
  std::string digest;
  if (cfg.seed == kDefaultSeed) {
    digest = pool_digest(pool, ref);
  } else {
    const RequestPool default_pool = make_request_pool(cfg.workload, kDefaultSeed);
    digest = pool_digest(default_pool, build_reference(default_pool));
  }

  std::string why;
  correct = ref.errors == 0;
  if (ref.errors != 0) why = "reference responses contain errors";

  // A traced run measures an untraced and a traced phase of half the
  // window each; their difference is the tracing overhead.
  const double phase_s = cfg.traced ? cfg.seconds / 2.0 : cfg.seconds;
  const PhaseOutput plain = run_phase(cfg, pool, ref, false, cfg.setup_reps, phase_s);
  const E2e e_plain = end_to_end(plain);
  correct = phase_checks(plain, why) && correct;

  JsonObject report;
  report.str("workload", workload_name(cfg.workload))
      .integer("seed", cfg.seed)
      .boolean("traced", cfg.traced)
      .str("digest", digest)
      .integer("pool_texts", pool.texts.size())
      .num("reference_s", reference_s);
  std::uint64_t attempted = plain.attempted;
  std::uint64_t failed = plain.failed + plain.wrong;
  report.obj("e2e", e2e_json(e_plain)).obj("detail", phase_detail(plain, e_plain));

  if (cfg.traced) {
    const PhaseOutput tr = run_phase(cfg, pool, ref, true, 1, phase_s);
    const E2e e_tr = end_to_end(tr);
    correct = phase_checks(tr, why) && correct;
    attempted += tr.attempted;
    failed += tr.failed + tr.wrong;

    // Stage means over the window.  They add up to the total_ns mean only
    // when every stage histogram counted the same requests as total_ns,
    // and the window's count must be the completed requests.
    const double completed = tr.s1.completed - tr.s0.completed;
    bool same_requests = tr.m0.ok && tr.m1.ok;
    const auto stage_us = [&](const char* h) {
      const double n = tr.m1.count(h) - tr.m0.count(h);
      same_requests = same_requests && n == completed;
      return n > 0 ? (tr.m1.sum_ns(h) - tr.m0.sum_ns(h)) / n / 1e3 : 0.0;
    };
    const double parse = stage_us("serve_request_parse_ns");
    const double queue = stage_us("serve_request_queue_wait_ns");
    const double cache = stage_us("serve_request_cache_ns");
    const double evaluate = stage_us("serve_request_evaluate_ns");
    const double serialize = stage_us("serve_request_serialize_ns");
    const double journal = stage_us("serve_request_journal_append_ns");
    const double total = stage_us("serve_request_total_ns");
    const double stage_sum = parse + queue + cache + evaluate + serialize + journal;
    const double unattributed = total - stage_sum;
    const bool reconciled = same_requests && unattributed >= 0.0;
    if (!reconciled) {
      correct = false;
      why += (why.empty() ? "" : "; ") +
             std::string("daemon stage means do not reconcile with total_ns");
    }
    const double misses =
        (tr.s1.misses - tr.s0.misses) + (tr.s1.waits - tr.s0.waits);
    const double hits = tr.s1.hits - tr.s0.hits;
    const auto delta_sum_us = [&](const char* h) {
      return (tr.m1.sum_ns(h) - tr.m0.sum_ns(h)) / 1e3;
    };
    const double walk_calls =
        tr.m1.count("core_profile_batch_walk_ns") - tr.m0.count("core_profile_batch_walk_ns");
    const double walk_us = delta_sum_us("core_profile_batch_walk_ns");
    const double compile_us = delta_sum_us("core_profile_mna_sweeps_ns") +
                              delta_sum_us("core_profile_area_ns") +
                              delta_sum_us("core_profile_cost_flatten_ns");
    const LayerTimings lt = time_layers(pool, ref, tr.draws);
    std::vector<kits::ProcessKit> kit_list;
    if (pool.kit_texts.empty()) {
      kit_list = kits::builtin_kit_registry().kits();
    } else {
      for (const std::string& k : pool.kit_texts) kit_list.push_back(kits::parse_kit_json(k));
    }
    const OptionalStageTimes optional = time_optional_stages(kit_list);

    JsonObject layers;
    layers.num("serve.socket.wire_us", tr.roundtrip_us - total)
        .num("serve.socket.connects", static_cast<double>(tr.connects))
        .num("serve.socket.connect_us",
             tr.connects > 0 ? static_cast<double>(tr.connect_ns) / tr.connects / 1e3 : 0.0)
        .num("serve.socket.write_frame_us", tr.write_us)
        .num("serve.socket.read_frame_us", tr.read_us)
        .num("serve.protocol.probe_us", lt.probe_us)
        .num("serve.protocol.parse_us", lt.parse_us)
        .num("serve.protocol.cache_key_us", lt.cache_key_us)
        .num("kits.kit_json.parse_us", lt.kit_parse_us)
        .num("serve.service.parse_us", parse)
        .num("serve.service.queue_wait_us", queue)
        .num("serve.service.cache_us", cache)
        .num("serve.service.evaluate_us", evaluate)
        .num("serve.service.serialize_us", serialize)
        .num("serve.service.unattributed_us", unattributed)
        .num("serve.service.total_us", total)
        .num("common.jsonfmt.numbers_per_op", lt.numbers_per_op)
        .num("common.jsonfmt.number_ns", lt.number_ns)
        .num("serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0)
        .num("serve.cache.misses", misses)
        .num("serve.cache.evictions", tr.s1.evictions - tr.s0.evictions)
        .num("serve.cache.miss_us",
             misses > 0 ? delta_sum_us("serve_request_cache_ns") / misses : 0.0)
        .num("serve.journal.append_us", journal)
        .num("serve.journal.bytes_per_op", completed > 0 ? tr.journal_bytes / completed : 0.0)
        .num("serve.journal.records_per_op",
             completed > 0 ? ((tr.s1.journal_admits - tr.s0.journal_admits) +
                              (tr.s1.journal_commits - tr.s0.journal_commits)) /
                                 completed
                           : 0.0)
        .num("core.evaluate_us", walk_calls > 0 ? walk_us / walk_calls : 0.0)
        .num("core.evaluate.points_per_s", walk_us > 0 ? walk_calls / (walk_us / 1e6) : 0.0)
        .num("core.compile_us", misses > 0 ? compile_us / misses : 0.0)
        .num("core.scenario_grid.cells_per_s", 0.0)
        .num("kits.fleet_us", 0.0)
        .num("rf.tolerance.samples_per_s", 0.0)
        .num("core.partition_us", 0.0)
        .num("core.pareto_us", optional.pareto_us)
        .num("core.sensitivity_us", optional.sensitivity_us)
        .num("daemon.threads_end", static_cast<double>(tr.p1.threads))
        .num("daemon.vmsize_mb_end", tr.p1.vm_size_mb)
        .num("trace_overhead.latency_p50_us", e_tr.fig.p50_us - e_plain.fig.p50_us)
        .num("trace_overhead.cpu_us_per_op",
             e_tr.fig.cpu_us_per_op - e_plain.fig.cpu_us_per_op)
        .num("trace_overhead.ops_per_s", e_tr.fig.ops_per_s - e_plain.fig.ops_per_s);
    report.obj("layers", layers)
        .obj("traced_e2e", e2e_json(e_tr))
        .obj("traced_detail", phase_detail(tr, e_tr))
        .num("stage_sum_us", stage_sum)
        .boolean("stages_reconciled", reconciled);
  }
  report.integer("attempted", attempted)
      .integer("failed", failed)
      .boolean("correct", correct)
      .str("why", why);
  return report;
}

}  // namespace perfbench
