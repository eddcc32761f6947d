// Resilient serve client: reconnect, deterministic exponential backoff with
// jitter, a retry budget, deadline propagation and a circuit breaker.
//
// Retry safety rests on the service determinism contract (service.hpp): a
// response is a pure function of the request text and the service options,
// so re-sending a request whose response may or may not have been produced
// yields the same bytes either way — a retry can never observe a different
// answer, and (with journaling) the server never double-executes anything
// observable: a retried request is simply a new admission whose response is
// identical.  That is why every transport failure mode (send error, clean
// EOF before a response, truncated response) is safe to retry here.
//
// Determinism for tests: backoff jitter comes from a seeded PCG32 stream,
// and both the sleeper and the clock are injectable, so a test pins the
// exact backoff schedule without ever touching the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/socket.hpp"

namespace ipass::serve {

struct RetryPolicy {
  unsigned max_attempts = 8;           // total tries per call (>= 1)
  std::uint32_t base_backoff_ms = 10;  // backoff before attempt 2
  std::uint32_t max_backoff_ms = 2000;
  // Each backoff is drawn uniformly from ((1 - jitter) * b, b] — full value
  // at jitter 0, decorrelated retries at jitter 1.
  double jitter = 0.5;
  std::uint64_t backoff_seed = 1;
  // Trip the breaker after this many CONSECUTIVE failed attempts (across
  // calls); 0 disables the breaker.  While open, calls fail fast with an
  // overload error until cooldown_ms passed, then ONE half-open probe
  // attempt is allowed: success closes the breaker, failure re-opens it.
  unsigned breaker_threshold = 8;
  std::uint32_t breaker_cooldown_ms = 250;
};

struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t no_response_failures = 0;
  std::uint64_t truncated_responses = 0;
  std::uint64_t oversized_responses = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t breaker_trips = 0;
};

class ResilientClient {
 public:
  using Sleep = std::function<void(std::chrono::milliseconds)>;
  using Clock = std::function<std::chrono::steady_clock::time_point()>;

  // The connection is lazy: nothing happens until call().  Pass a fake
  // sleeper/clock in tests for wall-clock-free determinism.
  ResilientClient(std::string host, std::uint16_t port, RetryPolicy policy = {},
                  Sleep sleep = {}, Clock clock = {});

  // One request, retried until success, retry-budget exhaustion, deadline
  // expiry or an open breaker.  `deadline_ms` (0 = none) bounds the WHOLE
  // call including backoff sleeps: the remaining budget shrinks across
  // attempts and a backoff never sleeps past it.  Throws PreconditionError
  // with ErrorCode::Deadline (deadline), ErrorCode::Overload (budget
  // exhausted / breaker open) naming the last transport failure.
  std::string call(const std::string& request, std::int64_t deadline_ms = 0);

  const ClientStats& stats() const { return stats_; }
  // Every backoff actually slept, in order — what the chaos soak pins
  // across identical runs.
  const std::vector<std::uint32_t>& backoff_log() const { return backoff_log_; }
  bool breaker_open() const { return breaker_open_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  // One transport attempt; returns true with `response` filled on success,
  // false after classifying the failure into stats_.
  bool attempt_once(const std::string& request, std::string& response);
  std::uint32_t next_backoff_ms(unsigned attempt);

  const std::string host_;
  const std::uint16_t port_;
  const RetryPolicy policy_;
  Sleep sleep_;
  Clock clock_;
  Pcg32 backoff_rng_;
  std::unique_ptr<SocketClient> conn_;
  ClientStats stats_;
  std::vector<std::uint32_t> backoff_log_;
  unsigned consecutive_failures_ = 0;
  bool breaker_open_ = false;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  std::string last_failure_;
};

// Outcome of a readiness or stats probe (ipass_replay --health/--stats).
struct ProbeResult {
  bool answered = false;  // a reply frame arrived
  bool ok = false;        // ...and it was not an error response
  std::string response;   // the reply, when answered
};

// Sends `probe` (e.g. {"kind": "health"}) to host:port, retrying connection
// and transport failures up to `attempts` times with `backoff` between
// them: the daemon may still be recovering its journal or binding the port.
// The first reply ends the probe.  An error response, such as the
// "too many connections" refusal of a saturated daemon, is an answer but
// not a ready one, so `ok` is false.
ProbeResult probe_daemon(const std::string& host, std::uint16_t port,
                         const std::string& probe, unsigned attempts,
                         std::chrono::milliseconds backoff);

// Whether `response` is a structured error response ("status": "error").
// A reply that is not a JSON object counts as an error too.
bool is_error_response(const std::string& response);

}  // namespace ipass::serve
