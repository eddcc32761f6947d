#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "gps/bom.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "serve/replay.hpp"

namespace ipass::serve {
namespace {

// Responses are wire JSON; read them back through the shared parser.
JsonValue parse_response(const std::string& line) {
  return parse_json(line, "serve response");
}

std::string field_str(const JsonValue& v, const char* key) {
  for (const auto& [k, val] : v.object) {
    if (k == key) return val.string;
  }
  ADD_FAILURE() << "response lacks field " << key;
  return {};
}

const JsonValue* field(const JsonValue& v, const char* key) {
  for (const auto& [k, val] : v.object) {
    if (k == key) return &val;
  }
  return nullptr;
}

std::string error_code_of(const std::string& line) {
  const JsonValue v = parse_response(line);
  EXPECT_EQ(field_str(v, "status"), "error");
  return field_str(v, "code");
}

TEST(AssessmentService, OkResponseMatchesDirectPipelineBitForBit) {
  AssessmentService service;
  const JsonValue v = parse_response(
      service.handle(R"({"id": "q", "kit_name": "mcm-d-si-ip"})"));
  EXPECT_EQ(field_str(v, "status"), "ok");
  EXPECT_EQ(field_str(v, "kit"), "mcm-d-si-ip");
  EXPECT_EQ(field(v, "degraded")->boolean, false);

  // The same study, assembled the way the service documents it (the
  // sweep_kits shape): reference build-ups then the kit's variants.
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const kits::ProcessKit& reference = registry.at(kits::kPcbFr4Kit);
  const kits::ProcessKit& kit = registry.at(kits::kMcmDSiIpKit);
  std::vector<core::BuildUp> buildups = kits::make_buildups(reference);
  for (core::BuildUp& b :
       kits::make_buildups(kit, static_cast<int>(buildups.size()) + 1)) {
    buildups.push_back(std::move(b));
  }
  const core::AssessmentPipeline pipeline(gps::gps_front_end_bom(), buildups,
                                          kits::apply_passives(kit));
  const core::BatchAssessmentResult batch =
      pipeline.evaluate({core::AssessmentInputs{}});

  const JsonValue* rows = field(v, "buildups");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), buildups.size());
  EXPECT_EQ(static_cast<std::size_t>(field(v, "winner")->number), batch.winners[0]);
  for (std::size_t b = 0; b < buildups.size(); ++b) {
    const JsonValue& row = rows->array[b];
    EXPECT_EQ(field_str(row, "name"), buildups[b].name);
    // %.17g round-trips binary64 exactly — equality is exact, not approximate.
    EXPECT_EQ(field(row, "fom")->number, batch.at(0, b).fom);
    EXPECT_EQ(field(row, "final_cost_per_shipped")->number,
              batch.at(0, b).final_cost_per_shipped);
    EXPECT_EQ(field(row, "cost_rel")->number, batch.at(0, b).cost_rel);
  }
}

TEST(AssessmentService, ErrorTaxonomyOnTheWire) {
  AssessmentService service;
  EXPECT_EQ(error_code_of(service.handle("garbage")), "parse");
  EXPECT_EQ(error_code_of(service.handle(R"({"id": "x"})")), "validation");
  EXPECT_EQ(error_code_of(service.handle(R"({"id": "x", "kit_name": "nope"})")),
            "validation");
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "x", "kit_name": "ltcc-ceramic", "bom": "other"})")),
            "validation");
  // A reference with integrated passives cannot anchor the comparison.
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "x", "kit_name": "ltcc-ceramic", "reference": "mcm-d-si-ip"})")),
            "validation");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 5U);
  EXPECT_EQ(stats.errors, 5U);
  EXPECT_EQ(stats.ok, 0U);
}

TEST(AssessmentService, InjectedDeadlineProducesDeadlineError) {
  ServiceOptions options;
  options.faults.deadline_rate = 1.0;
  options.faults.seed = 3;
  AssessmentService service(options);
  const std::string line =
      service.handle(R"({"id": "d", "kit_name": "ltcc-ceramic", "deadline_ms": 60000})");
  EXPECT_EQ(error_code_of(line), "deadline");
  EXPECT_NE(line.find("60000 ms"), std::string::npos);
}

TEST(AssessmentService, StallPastRealDeadlineProducesDeadlineError) {
  ServiceOptions options;
  options.faults.stall_rate = 1.0;
  options.faults.stall_ms = 80;
  AssessmentService service(options);
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "d", "kit_name": "ltcc-ceramic", "deadline_ms": 20})")),
            "deadline");
}

TEST(AssessmentService, OverloadRefusalIsStructuredAndCounted) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  options.faults.stall_rate = 1.0;  // keep the first request busy
  options.faults.stall_ms = 300;
  AssessmentService service(options);
  std::future<std::string> first =
      service.submit(R"({"id": "slow", "kit_name": "ltcc-ceramic"})");
  const std::string refused =
      service.handle(R"({"id": "second", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(error_code_of(refused), "overload");
  const JsonValue first_v = parse_response(first.get());
  EXPECT_EQ(field_str(first_v, "status"), "ok");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.overloaded, 1U);
  EXPECT_EQ(stats.admitted, 1U);
}

TEST(AssessmentService, DegradationShedsOptionalStagesAndFlags) {
  ServiceOptions options;
  options.workers = 1;
  options.degrade_depth = 1;
  options.faults.stall_rate = 1.0;  // first request occupies the worker
  options.faults.stall_ms = 200;
  AssessmentService service(options);
  std::future<std::string> first =
      service.submit(R"({"id": "slow", "kit_name": "ltcc-ceramic"})");
  // Admitted while the first is in flight -> optional stages shed.
  std::future<std::string> second = service.submit(
      R"({"id": "shed", "kit_name": "ltcc-ceramic", "pareto": true, "sensitivity": true})");
  const JsonValue degraded = parse_response(second.get());
  EXPECT_EQ(field_str(degraded, "status"), "ok");
  EXPECT_TRUE(field(degraded, "degraded")->boolean);
  EXPECT_EQ(field(degraded, "sensitivity"), nullptr);
  const JsonValue* rows = field(degraded, "buildups");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(field(rows->array[0], "frontier"), nullptr);
  first.get();
  EXPECT_GE(service.stats().degraded, 1U);

  // The same request through an idle service keeps its optional stages.
  AssessmentService calm;
  const JsonValue full = parse_response(calm.handle(
      R"({"id": "full", "kit_name": "ltcc-ceramic", "pareto": true, "sensitivity": true})"));
  EXPECT_FALSE(field(full, "degraded")->boolean);
  EXPECT_NE(field(full, "sensitivity"), nullptr);
  EXPECT_NE(field(field(full, "buildups")->array[0], "frontier"), nullptr);
}

TEST(AssessmentService, FaultStormNeverCrashesLeaksOrDeadlocks) {
  const std::vector<std::string> requests = {
      R"({"id": "a", "kit_name": "mcm-d-si-ip", "pareto": true})",
      R"({"id": "b", "kit_name": "ltcc-ceramic", "sensitivity": true})",
      R"({"id": "c", "kit_name": "organic-ep", "volume": 50000})",
      R"({"id": "d", "kit_name": "nope"})",
      "not json at all",
      R"({"id": "f", "kit_name": "si-interposer-2p5d", "deadline_ms": 60000})",
  };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ServiceOptions options;
    options.workers = 4;
    options.faults.seed = seed;
    options.faults.parse_rate = 0.3;
    options.faults.worker_throw_rate = 0.3;
    options.faults.stall_rate = 0.3;
    options.faults.stall_ms = 2;
    options.faults.deadline_rate = 0.2;
    options.faults.evict_rate = 0.5;
    AssessmentService service(options);
    std::vector<std::future<std::string>> futures;
    for (int round = 0; round < 4; ++round) {
      for (const std::string& r : requests) futures.push_back(service.submit(r));
    }
    for (std::future<std::string>& f : futures) {
      // Every admitted request gets exactly one well-formed response.
      const JsonValue v = parse_response(f.get());
      const std::string status = field_str(v, "status");
      EXPECT_TRUE(status == "ok" || status == "error") << status;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.admitted + stats.overloaded, futures.size());
    EXPECT_EQ(stats.completed, stats.admitted);  // no leaked slots
  }
}

TEST(AssessmentService, DestructorDrainsAdmittedRequests) {
  std::vector<std::future<std::string>> futures;
  {
    ServiceOptions options;
    options.workers = 2;
    AssessmentService service(options);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(
          service.submit(R"({"id": "drain", "kit_name": "ltcc-ceramic"})"));
    }
  }  // destructor joins after draining
  for (std::future<std::string>& f : futures) {
    EXPECT_EQ(field_str(parse_response(f.get()), "status"), "ok");
  }
}

TEST(AssessmentService, HealthProbeAnswersWithoutAdmission) {
  AssessmentService service;
  const JsonValue v = parse_response(service.handle(R"({"kind": "health"})"));
  EXPECT_EQ(field_str(v, "status"), "ok");
  EXPECT_EQ(field_str(v, "version"), kServeVersion);
  ASSERT_NE(field(v, "queue_depth"), nullptr);
  ASSERT_NE(field(v, "journal"), nullptr);
  EXPECT_EQ(field(v, "journal")->boolean, false);
  EXPECT_EQ(field(v, "journal_lag")->number, 0.0);
  EXPECT_EQ(field(v, "draining")->boolean, false);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.health, 1U);
  EXPECT_EQ(stats.admitted, 0U);  // a probe never consumes a sequence number

  // An inline kit containing the "kind" substring in its document is NOT a
  // health probe (the full parse decides, not the substring).
  const std::string assess = service.handle(
      R"({"id": "k", "kit_name": "ltcc-ceramic", "weights": {"cost": 1}})");
  EXPECT_EQ(field_str(parse_response(assess), "status"), "ok");
  EXPECT_EQ(service.stats().admitted, 1U);
}

TEST(AssessmentService, DrainRefusesNewWorkAndFinishesAdmitted) {
  ServiceOptions options;
  options.workers = 2;
  AssessmentService service(options);
  std::vector<std::future<std::string>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(
        service.submit(R"({"id": "pre", "kit_name": "ltcc-ceramic"})"));
  }
  service.begin_drain();
  // New work is refused with a structured overload error naming the drain...
  const std::string refused =
      service.handle(R"({"id": "post", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(error_code_of(refused), "overload");
  EXPECT_NE(refused.find("draining"), std::string::npos) << refused;
  // ...health probes still answer (monitoring keeps working mid-drain)...
  EXPECT_NE(service.handle(R"({"kind": "health"})").find("\"draining\": true"),
            std::string::npos);
  // ...and everything admitted before the drain completes normally.
  EXPECT_TRUE(service.await_drained(std::chrono::milliseconds(10000)));
  for (std::future<std::string>& f : admitted) {
    EXPECT_EQ(field_str(parse_response(f.get()), "status"), "ok");
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 4U);
  EXPECT_EQ(stats.completed, 4U);
  EXPECT_EQ(stats.overloaded, 1U);
}

TEST(AssessmentService, CacheIsSharedAcrossRequests) {
  AssessmentService service;
  service.handle(R"({"id": "1", "kit_name": "ltcc-ceramic"})");
  service.handle(R"({"id": "2", "kit_name": "ltcc-ceramic", "volume": 9000})");
  service.handle(R"({"id": "3", "kit_name": "ltcc-ceramic", "weights": {"cost": 2}})");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1U);
  EXPECT_EQ(stats.cache.hits, 2U);
}

// ---- one parse per request: admission parses once, the worker reads the
// tree.  Every response below is pinned to the bytes of the two-parse
// implementation (probe re-parse plus parse_request(text)).

std::string ltcc_kit_text() {
  return kits::kit_json(kits::builtin_kit_registry().at(kits::kLtccKit));
}

TEST(AssessmentServiceParseOnce, InlineKitSubstrateKindIsNotAProbe) {
  AssessmentService service;
  const std::string response = service.handle(
      R"({"id": "inline-kind", "kit": )" + ltcc_kit_text() + R"(, "scope": "cost-only"})");
  EXPECT_EQ(response,
      R"({"id": "inline-kind", "status": "ok", "degraded": false)"
      R"(, "kit": "ltcc-ceramic", "reference": "pcb-fr4")"
      R"(, "scope": "cost-only", "winner": 1, "buildups": [{"name": "PCB/SMD")"
      R"(, "performance": 1, "module_area_mm2": 1888.7499999999998)"
      R"(, "area_rel": 1, "shipped_fraction": 0.9324459538005192)"
      R"(, "direct_cost": 85.578750000000014)"
      R"(, "yield_loss_per_shipped": 6.2000277953167089)"
      R"(, "nre_per_shipped": 0.53575532227008271)"
      R"(, "final_cost_per_shipped": 92.314533117586805, "cost_rel": 1)"
      R"(, "fom": 1}, {"name": "LTCC/WB/IP&SMD", "performance": 1)"
      R"(, "module_area_mm2": 748.53409791928766)"
      R"(, "area_rel": 0.39631189830273345)"
      R"(, "shipped_fraction": 0.90302760384694558)"
      R"(, "direct_cost": 75.771072783354299)"
      R"(, "yield_loss_per_shipped": 7.1135273725139321)"
      R"(, "nre_per_shipped": 3.3192532344504251)"
      R"(, "final_cost_per_shipped": 86.203853390318656)"
      R"(, "cost_rel": 0.93380587518668823, "fom": 2.7021302962632969}]})");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1U);
  EXPECT_EQ(stats.health, 0U);
  EXPECT_EQ(stats.stats_probes, 0U);
}

TEST(AssessmentServiceParseOnce, ProbeWithExtraFieldsIsAnsweredUnsequenced) {
  const std::string path = ::testing::TempDir() + "ipass_parse_once_probe.wal";
  std::remove(path.c_str());
  {
    ServiceOptions options;
    options.journal_path = path;
    AssessmentService service(options);
    EXPECT_EQ(service.handle(R"({"kind": "health", "id": "h1", "extra": [1, 2]})"),
              R"({"status": "ok", "version": "ipass-serve/9", "queue_depth": 0)"
              R"(, "running": 0, "workers": 1, "admitted": 0, "completed": 0)"
              R"(, "cache_size": 0, "cache_hits": 0, "journal": true)"
              R"(, "journal_lag": 0, "draining": false})");
    EXPECT_NE(service.handle(R"({"id": "x", "kind": "stats", "weights": {"cost": 2}})")
                  .find(R"("kind": "stats")"),
              std::string::npos);
    EXPECT_EQ(service.journal()->admit_count(), 0U);
    // The next real request still gets seq 0.
    service.handle(R"({"id": "a", "kit_name": "pcb-fr4"})");
    ASSERT_EQ(service.traces().snapshot().size(), 1U);
    EXPECT_EQ(service.traces().snapshot()[0].seq, 0U);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.health, 1U);
    EXPECT_EQ(stats.stats_probes, 1U);
    EXPECT_EQ(stats.admitted, 1U);
  }
  std::remove(path.c_str());
}

TEST(AssessmentServiceParseOnce, MalformedTextWithKindGetsTheStructuredParseError) {
  AssessmentService service;
  EXPECT_EQ(service.handle(R"({"kind": "health", "id": "m1")"),
            R"({"id": "", "status": "error", "code": "parse", )"
            R"("message": "serve request: unexpected end of document at offset 29"})");
  EXPECT_EQ(service.handle(R"({"id": "m2", "kit": {"substrate": {"kind": "ltcc"}})"),
            R"({"id": "", "status": "error", "code": "parse", )"
            R"("message": "serve request: unexpected end of document at offset 51"})");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 2U);  // sequenced like any request
  EXPECT_EQ(stats.parse_errors, 2U);
  EXPECT_EQ(stats.health, 0U);
}

TEST(AssessmentServiceParseOnce, InjectedParseFaultStillWins) {
  ServiceOptions options;
  options.faults.parse_rate = 1.0;
  AssessmentService service(options);
  const std::string injected =
      R"({"id": "", "status": "error", "code": "parse", )"
      R"("message": "serve request: injected parse fault"})";
  EXPECT_EQ(service.handle(R"({"id": "p1", "kit_name": "pcb-fr4"})"), injected);
  EXPECT_EQ(service.handle(R"({"id": "p2", "kit": )" + ltcc_kit_text() + "}"), injected);
  // The trace charges the admission parse even though the worker never
  // validated the envelope.
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 2U);
  for (const RequestTrace& t : traces) EXPECT_GT(t.parse_ns, 0U);
}

TEST(AssessmentServiceParseOnce, TracedStagesIncludeAdmissionParseAndFitTheTotal) {
  ServiceOptions options;
  options.journal_path = ::testing::TempDir() + "ipass_parse_once_trace.wal";
  std::remove(options.journal_path.c_str());
  {
    AssessmentService service(options);
    const std::string request = R"({"id": "t", "kit": )" + ltcc_kit_text() + "}";
    for (int i = 0; i < 4; ++i) service.handle(request);
    service.handle("garbage");
    const std::vector<RequestTrace> traces = service.traces().snapshot();
    ASSERT_EQ(traces.size(), 5U);
    for (const RequestTrace& t : traces) {
      EXPECT_GT(t.parse_ns, 0U) << "seq " << t.seq;
      // Sequential handle() calls run on the calling thread: no hand-off.
      EXPECT_LT(t.queue_wait_ns, 1000000U) << "seq " << t.seq;
      const std::uint64_t stages = t.parse_ns + t.queue_wait_ns + t.cache_ns +
                                   t.evaluate_ns + t.serialize_ns +
                                   t.journal_append_ns;
      EXPECT_LE(stages, t.total_ns) << "seq " << t.seq;
    }
  }
  std::remove(options.journal_path.c_str());
}

// ---- dispatch: handle() runs on the calling thread when a slot is free
// and nothing is queued; otherwise it queues like submit().

// Poll `done` (the service's own counters) until it holds or 10 s pass.
template <typename Pred>
bool eventually(Pred done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ServiceOptions stalled_single_slot(std::uint32_t stall_ms) {
  ServiceOptions options;
  options.workers = 1;
  options.faults.stall_rate = 1.0;
  options.faults.stall_ms = stall_ms;
  return options;
}

TEST(AssessmentServiceDispatch, HandleQueuesWhileTheOnlySlotIsBusy) {
  AssessmentService service(stalled_single_slot(300));
  std::future<std::string> pooled =
      service.submit(R"({"id": "pooled", "kit_name": "ltcc-ceramic"})");
  ASSERT_TRUE(eventually([&] {
    const JsonValue health = parse_response(service.handle(R"({"kind": "health"})"));
    return field(health, "running")->number == 1.0;
  }));
  std::future<std::string> caller = std::async(std::launch::async, [&] {
    return service.handle(R"({"id": "caller", "kit_name": "ltcc-ceramic"})");
  });
  ASSERT_TRUE(eventually([&] { return service.stats().admitted == 2; }));
  // The second request waits in the queue instead of running beside the
  // first: the slot cap covers caller-run requests too.
  const JsonValue health = parse_response(service.handle(R"({"kind": "health"})"));
  EXPECT_EQ(field(health, "running")->number, 1.0);
  EXPECT_EQ(field(health, "queue_depth")->number, 1.0);
  EXPECT_EQ(field_str(parse_response(pooled.get()), "status"), "ok");
  EXPECT_EQ(field_str(parse_response(caller.get()), "status"), "ok");
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 2U);
  // seq 1 waited out most of seq 0's stall before a worker took it.
  EXPECT_EQ(traces[1].seq, 1U);
  EXPECT_GT(traces[1].queue_wait_ns, 100000000U);
  EXPECT_EQ(service.stats().queue_high_water, 2U);
}

TEST(AssessmentServiceDispatch, HandleNeverOvertakesAQueuedRequest) {
  AssessmentService service(stalled_single_slot(60));
  std::future<std::string> first =
      service.submit(R"({"id": "first", "kit_name": "ltcc-ceramic"})");
  std::future<std::string> second =
      service.submit(R"({"id": "second", "kit_name": "ltcc-ceramic"})");
  std::future<bool> third_after_second = std::async(std::launch::async, [&] {
    service.handle(R"({"id": "third", "kit_name": "ltcc-ceramic"})");
    return second.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  EXPECT_TRUE(third_after_second.get());
  first.get();
  // With one slot, completion order is admission order.
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 3U);
  for (std::size_t i = 0; i < traces.size(); ++i) EXPECT_EQ(traces[i].seq, i);
}

TEST(AssessmentServiceDispatch, CallerRunSlotIsHandedToAWorker) {
  AssessmentService service(stalled_single_slot(150));
  std::future<std::string> caller = std::async(std::launch::async, [&] {
    return service.handle(R"({"id": "caller", "kit_name": "ltcc-ceramic"})");
  });
  ASSERT_TRUE(eventually([&] { return service.stats().admitted == 1; }));
  // Queued behind the caller-run request; no worker may start it while the
  // caller holds the only slot, and the caller's release must wake one.
  std::future<std::string> pooled =
      service.submit(R"({"id": "pooled", "kit_name": "ltcc-ceramic"})");
  const JsonValue health = parse_response(service.handle(R"({"kind": "health"})"));
  EXPECT_EQ(field(health, "running")->number, 1.0);
  EXPECT_EQ(field(health, "queue_depth")->number, 1.0);
  ASSERT_EQ(pooled.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(field_str(parse_response(pooled.get()), "status"), "ok");
  EXPECT_EQ(field_str(parse_response(caller.get()), "status"), "ok");
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 2U);
  EXPECT_LT(traces[0].queue_wait_ns, 1000000U);
  EXPECT_GT(traces[1].queue_wait_ns, 50000000U);
}

TEST(AssessmentServiceDispatch, DrainWaitsForACallerRunRequest) {
  AssessmentService service(stalled_single_slot(250));
  std::future<std::string> caller = std::async(std::launch::async, [&] {
    return service.handle(R"({"id": "caller", "kit_name": "ltcc-ceramic"})");
  });
  ASSERT_TRUE(eventually([&] { return service.stats().admitted == 1; }));
  service.begin_drain();
  EXPECT_FALSE(service.await_drained(std::chrono::milliseconds(20)));
  EXPECT_TRUE(service.await_drained(std::chrono::milliseconds(10000)));
  EXPECT_EQ(field_str(parse_response(caller.get()), "status"), "ok");
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 1U);
  EXPECT_LT(traces[0].queue_wait_ns, 1000000U);  // ran on the caller
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.ok, 1U);
}

TEST(AssessmentServiceDispatch, ConcurrentHandleJournalMatchesSerialReplay) {
  const std::vector<std::string> kits = {"pcb-fr4", "mcm-d-si-ip", "ltcc-ceramic",
                                         "organic-ep", "si-interposer-2p5d"};
  ServiceOptions options;
  options.workers = 2;
  // Seq-keyed faults make every response depend on its admission seq.
  options.faults.seed = 9;
  options.faults.parse_rate = 0.05;
  options.faults.worker_throw_rate = 0.05;
  options.faults.deadline_rate = 0.05;
  options.faults.evict_rate = 0.1;
  options.journal_path = ::testing::TempDir() + "ipass_dispatch_determinism.wal";
  std::remove(options.journal_path.c_str());
  {
    AssessmentService service(options);
    std::vector<std::thread> callers;
    for (int t = 0; t < 8; ++t) {
      callers.emplace_back([&service, &kits, t] {
        for (int i = 0; i < 50; ++i) {
          const int n = t * 50 + i;
          std::string request = "{\"id\": \"c" + std::to_string(n) +
                                "\", \"kit_name\": \"" + kits[n % kits.size()] + "\"";
          if (n % 7 == 0) request += ", \"volume\": " + std::to_string(1000 + n);
          if (n % 11 == 0) request += ", \"pareto\": true";
          if (n % 13 == 0) request += ", \"weights\": {\"cost\": 2}";
          service.handle(n % 37 == 0 ? "not json" : request + "}");
        }
      });
    }
    for (std::thread& c : callers) c.join();
    EXPECT_EQ(service.stats().completed, 400U);
  }
  JournalRecovery journal = scan_journal(options.journal_path);
  std::remove(options.journal_path.c_str());
  ASSERT_EQ(journal.entries.size(), 400U);
  std::sort(journal.entries.begin(), journal.entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) { return a.seq < b.seq; });
  std::vector<std::string> texts;
  for (const JournalEntry& e : journal.entries) {
    ASSERT_TRUE(e.committed) << "seq " << e.seq;
    texts.push_back(e.request);
  }
  ServiceOptions serial = options;
  serial.workers = 1;
  serial.journal_path.clear();
  AssessmentService reference(serial);
  const std::vector<std::string> expected = replay(reference, texts);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(journal.entries[i].response, expected[i]) << "seq " << i;
  }
}

}  // namespace
}  // namespace ipass::serve
