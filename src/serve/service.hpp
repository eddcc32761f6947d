// The fault-tolerant assessment service core: bounded-queue admission,
// worker pool, per-request deadlines, graceful degradation and the study
// cache, glued to the wire protocol.  The socket front-end (socket.hpp)
// and the replay tool are thin shells over this class; every behavior is
// testable in-process without a network.
//
// Dispatch: every admitted request runs through one execution routine,
// either on a pool worker (submit(), and handle() when it must wait) or on
// the thread that called handle() (caller-run: nothing is queued and a
// slot is free, so the request skips both cross-thread hand-offs).
// `workers` caps the requests running at once across both kinds, and a
// queued request is never overtaken by a later handle().
//
// Robustness contract: submit() always yields exactly one response line —
// a request can fail (structured error with a taxonomy code), be shed
// (degraded response), or be refused at admission (overloaded error), but
// it can never crash the process, deadlock, or leak its queue slot.  The
// response content is a pure function of (request text, admission sequence
// number, service options): timing, thread interleaving, dispatch and
// cache state never leak into the bytes, which is what makes request-log
// replay byte-identical across worker counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/function_bom.hpp"
#include "kits/registry.hpp"
#include "serve/cache.hpp"
#include "serve/fault.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"

namespace ipass::serve {

struct ServiceOptions {
  // Cap on concurrently running requests, pooled or caller-run; also the
  // pool's thread count.
  unsigned workers = 1;
  std::size_t queue_limit = 64;  // admitted-but-unfinished cap; above = overloaded
  // Backlog depth at admission from which optional stages (pareto,
  // sensitivity) are shed and the response flagged "degraded": true.
  // 0 disables shedding (the replay/CI configuration — shedding depends on
  // racing queue depth, so determinism requires it off).
  std::size_t degrade_depth = 0;
  std::size_t cache_capacity = 8;  // compiled studies kept (LRU)
  unsigned eval_threads = 1;       // engine threads per request
  FaultPlan faults;                // deterministic fault injection
  // Durable request journal (empty = journaling off).  Every admission
  // writes an Admit record before processing and a Commit record (the full
  // response) before the future resolves; on construction the service
  // recovers the file, truncates any torn tail, and re-executes the
  // admitted-but-uncommitted suffix so the journal's response stream is
  // byte-identical to an uninterrupted run (see serve/journal.hpp).
  std::string journal_path;
  bool journal_sync = false;  // fsync per append (power-loss durability)
  // Completed requests slower than this are logged to stderr as one-line
  // stage traces (trace_to_string); < 0 disables the log, 0 logs every
  // request.  Purely observational: the threshold can never change a
  // response byte.
  std::int64_t slow_request_ms = -1;
  // Completed traces retained for the traces() ring (oldest overwritten).
  std::size_t trace_capacity = 256;
};

struct ServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;      // completed with a structured error
  std::uint64_t overloaded = 0;  // refused at admission
  std::uint64_t degraded = 0;    // completed with shed optional stages
  std::uint64_t recovered = 0;   // journal entries re-executed on startup
  std::uint64_t health = 0;      // health probes answered (never admitted)
  std::uint64_t stats_probes = 0;  // stats probes answered (never admitted)
  // Highest concurrent admitted-but-unfinished count ever observed (queue
  // plus running) — how close admission came to queue_limit.
  std::uint64_t queue_high_water = 0;
  // Per-outcome breakdown of `errors` by taxonomy code.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t validation_errors = 0;
  std::uint64_t internal_errors = 0;
  CompiledStudyCache::Stats cache;
};

class AssessmentService {
 public:
  explicit AssessmentService(const ServiceOptions& options = {});
  // Drains the queue (every admitted request still gets its response),
  // then joins the workers.
  ~AssessmentService();

  AssessmentService(const AssessmentService&) = delete;
  AssessmentService& operator=(const AssessmentService&) = delete;

  // Admit one request (a single line/frame of JSON) for a pool worker.
  // The future always becomes a response line; it never throws.  The text
  // is parsed once, before the admission lock; the worker reuses that
  // tree.  Health and stats probes are answered immediately without
  // admission (no seq, no journal record).
  std::future<std::string> submit(std::string request_text);

  // Admit and wait, with the same admission and the same response bytes as
  // submit().get().  When nothing is queued and a slot is free the request
  // runs on the calling thread (no promise, no worker wake-up); otherwise
  // it queues behind the requests already waiting.
  std::string handle(const std::string& request_text);

  // Graceful drain: stop admitting (new submissions get structured overload
  // refusals naming the drain) while already-admitted requests keep
  // running.  await_drained() blocks until queue and workers are idle or
  // the timeout passes (returns whether fully drained); flush_journal()
  // makes everything committed so far durable.
  void begin_drain();
  bool await_drained(std::chrono::milliseconds timeout);
  void flush_journal();

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }
  const Journal* journal() const { return journal_.get(); }
  // Completed request traces (bounded ring, oldest overwritten).
  const TraceRing& traces() const { return traces_; }

 private:
  struct Task {
    std::uint64_t seq = 0;
    std::string text;  // journaled verbatim; re-parsed only when doc is empty
    // The admission parse, moved in so the worker never parses again.
    // Empty for malformed text (the worker's parse_request(text) produces
    // the structured parse error) and for journal recovery.
    std::optional<JsonValue> doc;
    bool shed = false;  // admission decided to shed optional stages
    std::chrono::steady_clock::time_point received;  // submit()/handle() entry
    std::chrono::steady_clock::time_point enqueued;  // admission decided
    std::uint64_t admission_parse_ns = 0;
  };
  // A task waiting for a pool worker, with the promise its submitter holds.
  struct Queued {
    Task task;
    std::promise<std::string> promise;
  };
  struct Outcome {
    std::string body;
    bool ok = false;
    bool degraded = false;
    ErrorCode error = ErrorCode::Unspecified;  // set when !ok
  };

  // The one admission routine behind submit() and handle(): parse, then
  // under m_ sequence, journal, shed, refuse or queue the request.  With
  // `run_here`, a request that finds nothing queued and a slot free claims
  // the slot and is moved into *run_here instead of being queued.  Returns
  // the response when admission answered the request itself (a probe or a
  // refusal); otherwise `queued` holds the queued task's future, or stays
  // invalid when the task was claimed to run here.
  std::optional<std::string> admit(std::string request_text,
                                   std::future<std::string>& queued,
                                   Task* run_here);
  // Execute one admitted task holding a slot: trace, process, journal
  // commit, release the slot and settle the counters, finish the trace,
  // signal a drain.  Shared by the pool and caller-run dispatch; a
  // caller-run task hands its freed slot to a worker when work is queued.
  std::string run_task(Task& task, bool caller_run);
  void worker_loop();
  // Never throws: every failure becomes a structured error response.
  // `trace` (optional) receives the stage durations and the outcome
  // classification — observability only, never any response byte.
  Outcome process(const Task& task, RequestTrace* trace) const;
  Outcome run_assessment(const Task& task, const AssessmentRequest& request,
                         RequestTrace* trace) const;
  std::string health_response() const;
  std::string stats_response() const;
  // Ring-push, latency histograms and the slow-request stderr log for one
  // completed request.
  void finish_trace(RequestTrace& trace) const;
  void recover_journal();  // re-execute the uncommitted suffix (ctor only)

  const ServiceOptions options_;
  const kits::KitRegistry registry_;
  const core::FunctionalBom bom_;
  mutable CompiledStudyCache cache_;
  std::unique_ptr<Journal> journal_;  // null when journaling is off

  mutable std::mutex m_;
  // Workers wait here for a queued task and a free slot.
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Queued> queue_;
  std::size_t running_ = 0;  // slots held, pooled plus caller-run
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  bool draining_ = false;
  ServiceStats stats_;
  mutable TraceRing traces_;  // completed-trace ring (internally locked)
  std::vector<std::thread> workers_;
};

}  // namespace ipass::serve
