// The serve workloads: a closed-loop load generator driving a real
// ipass_serve daemon over loopback TCP, with every response checked
// byte for byte against an in-process AssessmentService reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "generators.hpp"

namespace perfbench {

// Reference responses for a request pool: what a 1-worker in-process
// AssessmentService answers for each text.
struct ReferenceSet {
  std::vector<std::string> responses;
  std::size_t errors = 0;  // reference responses that are not "status": "ok"
};

ReferenceSet build_reference(const RequestPool& pool);

// Fingerprint of a pool's request texts and their reference responses (the
// committed default-seed digest is compared against this).
std::string pool_digest(const RequestPool& pool, const ReferenceSet& reference);

enum class Verdict { Ok, Wrong, Failed };

// How one roundtrip counts: Failed when the transport failed, Wrong when
// the response differs from the reference in any byte.
Verdict classify(const ReferenceSet& reference, std::size_t index, bool transport_ok,
                 const std::string& response);

struct ServeConfig {
  Workload workload = Workload::HotCached;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  std::string serve_binary;
  std::string tmp_dir;
  unsigned setup_reps = 9;
};

// Runs the workload and returns its report (see main.cpp);
// `correct` is false when any output or accounting check failed.
JsonObject run_serve(const ServeConfig& config, bool& correct);

}  // namespace perfbench
