#include "serve/client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/strfmt.hpp"

namespace ipass::serve {

namespace {

// Process-wide mirrors of the per-client Stats (every ResilientClient feeds
// the same counters; per-instance numbers stay exact through stats()).
struct ClientMetrics {
  metrics::Counter& calls;
  metrics::Counter& attempts;
  metrics::Counter& successes;
  metrics::Counter& failures;
  metrics::Counter& backoffs;
  metrics::Counter& breaker_trips;
  metrics::Counter& breaker_fast_fails;

  static ClientMetrics& instance() {
    auto& r = metrics::global_metrics();
    static ClientMetrics m{
        r.counter("client_calls_total"),
        r.counter("client_attempts_total"),
        r.counter("client_successes_total"),
        r.counter("client_attempt_failures_total"),
        r.counter("client_backoffs_total"),
        r.counter("client_breaker_trips_total"),
        r.counter("client_breaker_fast_fails_total"),
    };
    return m;
  }
};

}  // namespace

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 RetryPolicy policy, Sleep sleep, Clock clock)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      sleep_(sleep ? std::move(sleep)
                   : [](std::chrono::milliseconds d) { std::this_thread::sleep_for(d); }),
      clock_(clock ? std::move(clock)
                   : [] { return std::chrono::steady_clock::now(); }),
      backoff_rng_(policy.backoff_seed, 0x5e77e5ULL) {
  require(policy_.max_attempts >= 1, "ResilientClient: max_attempts must be >= 1");
  require(policy_.jitter >= 0.0 && policy_.jitter <= 1.0,
          "ResilientClient: jitter must be in [0, 1]");
  require(policy_.base_backoff_ms >= 1, "ResilientClient: base_backoff_ms must be >= 1");
}

bool ResilientClient::attempt_once(const std::string& request,
                                   std::string& response) {
  ++stats_.attempts;
  ClientMetrics::instance().attempts.add();
  if (conn_ == nullptr) {
    try {
      conn_ = std::make_unique<SocketClient>(host_, port_);
    } catch (const std::exception& e) {
      ++stats_.connect_failures;
      ClientMetrics::instance().failures.add();
      last_failure_ = e.what();
      return false;
    }
  }
  const TransportStatus status = conn_->try_roundtrip(request, response);
  if (status == TransportStatus::Ok) return true;
  ClientMetrics::instance().failures.add();
  // Connections are single-use after any failure: the stream position is
  // unknown (a torn response may sit half-read), so reconnect from scratch.
  conn_.reset();
  switch (status) {
    case TransportStatus::SendError: ++stats_.send_failures; break;
    case TransportStatus::NoResponse: ++stats_.no_response_failures; break;
    case TransportStatus::TruncatedResponse: ++stats_.truncated_responses; break;
    case TransportStatus::OversizedResponse: ++stats_.oversized_responses; break;
    case TransportStatus::Ok: break;
  }
  last_failure_ = transport_status_name(status);
  return false;
}

std::uint32_t ResilientClient::next_backoff_ms(unsigned attempt) {
  // Exponential: base * 2^(attempt-1), saturating at max.  attempt is the
  // number of attempts already failed (>= 1).
  const unsigned shift = std::min(attempt - 1U, 31U);
  const std::uint64_t raw = static_cast<std::uint64_t>(policy_.base_backoff_ms) << shift;
  const std::uint64_t capped =
      std::min<std::uint64_t>(raw, policy_.max_backoff_ms);
  // Jittered into ((1 - jitter) * b, b]: subtract a uniform fraction of the
  // jitter window so the full value stays reachable and the floor is open.
  const double u = backoff_rng_.uniform();
  const double value = static_cast<double>(capped) * (1.0 - policy_.jitter * u);
  return static_cast<std::uint32_t>(std::max(1.0, value));
}

std::string ResilientClient::call(const std::string& request,
                                  std::int64_t deadline_ms) {
  ++stats_.calls;
  ClientMetrics::instance().calls.add();
  const auto start = clock_();
  const auto remaining = [&]() -> std::int64_t {
    if (deadline_ms <= 0) return -1;  // no deadline
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             clock_() - start)
                             .count();
    return deadline_ms - elapsed;
  };

  if (breaker_open_) {
    const auto since = std::chrono::duration_cast<std::chrono::milliseconds>(
                           clock_() - breaker_opened_at_)
                           .count();
    if (since < static_cast<std::int64_t>(policy_.breaker_cooldown_ms)) {
      ++stats_.breaker_fast_fails;
      ClientMetrics::instance().breaker_fast_fails.add();
      throw PreconditionError(
          strf("ResilientClient: circuit breaker open (%u consecutive failures; "
               "%u ms cooldown)",
               consecutive_failures_, policy_.breaker_cooldown_ms),
          ErrorCode::Overload);
    }
    // Half-open: exactly one probe attempt decides.
    std::string response;
    if (attempt_once(request, response)) {
      breaker_open_ = false;
      consecutive_failures_ = 0;
      ++stats_.successes;
      ClientMetrics::instance().successes.add();
      return response;
    }
    breaker_opened_at_ = clock_();
    throw PreconditionError(
        strf("ResilientClient: half-open probe failed (%s); breaker re-opened",
             last_failure_.c_str()),
        ErrorCode::Overload);
  }

  for (unsigned attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (deadline_ms > 0 && remaining() <= 0) {
      throw PreconditionError(
          strf("ResilientClient: deadline of %lld ms exhausted after %u attempts "
               "(last failure: %s)",
               static_cast<long long>(deadline_ms), attempt - 1,
               attempt > 1 ? last_failure_.c_str() : "none"),
          ErrorCode::Deadline);
    }
    std::string response;
    if (attempt_once(request, response)) {
      consecutive_failures_ = 0;
      ++stats_.successes;
      ClientMetrics::instance().successes.add();
      return response;
    }
    if (policy_.breaker_threshold > 0 &&
        ++consecutive_failures_ >= policy_.breaker_threshold) {
      breaker_open_ = true;
      breaker_opened_at_ = clock_();
      ++stats_.breaker_trips;
      ClientMetrics::instance().breaker_trips.add();
      throw PreconditionError(
          strf("ResilientClient: circuit breaker tripped after %u consecutive "
               "failures (last: %s)",
               consecutive_failures_, last_failure_.c_str()),
          ErrorCode::Overload);
    }
    if (attempt == policy_.max_attempts) break;
    std::uint32_t backoff = next_backoff_ms(attempt);
    if (deadline_ms > 0) {
      const std::int64_t left = remaining();
      if (left <= 0) continue;  // next loop iteration throws Deadline
      backoff = static_cast<std::uint32_t>(
          std::min<std::int64_t>(backoff, left));
    }
    backoff_log_.push_back(backoff);
    ClientMetrics::instance().backoffs.add();
    sleep_(std::chrono::milliseconds(backoff));
  }
  throw PreconditionError(
      strf("ResilientClient: retry budget of %u attempts exhausted (last "
           "failure: %s)",
           policy_.max_attempts, last_failure_.c_str()),
      ErrorCode::Overload);
}

ProbeResult probe_daemon(const std::string& host, std::uint16_t port,
                         const std::string& probe, unsigned attempts,
                         std::chrono::milliseconds backoff) {
  ProbeResult result;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(backoff);
    try {
      SocketClient client(host, port);
      result.response = client.roundtrip(probe);
    } catch (const std::exception&) {
      continue;
    }
    result.answered = true;
    result.ok = !is_error_response(result.response);
    break;
  }
  return result;
}

bool is_error_response(const std::string& response) {
  try {
    const JsonValue root = parse_json(response, "probe response");
    if (root.type != JsonValue::Type::Object) return true;
    for (const auto& [key, value] : root.object) {
      if (key == "status") {
        return value.type != JsonValue::Type::String || value.string == "error";
      }
    }
    return false;
  } catch (const std::exception&) {
    return true;
  }
}

}  // namespace ipass::serve
