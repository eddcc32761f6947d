// Step 4 of the methodology: "calculate the cost including test and yield
// aspects" — translate a build-up plus its realized BOM into a MOE
// production flow (Fig 4) and evaluate it.
#pragma once

#include <cstddef>

#include "core/area_assess.hpp"
#include "core/buildup.hpp"
#include "moe/analytic.hpp"
#include "moe/flow.hpp"
#include "moe/montecarlo.hpp"

namespace ipass::core {

// Construct the production flow for a build-up whose area assessment is
// already known (the substrate cost depends on the substrate area).
moe::FlowModel build_flow(const AreaResult& area, const BuildUp& buildup);

struct CostAssessment {
  moe::FlowModel flow;
  moe::CostReport report;          // analytic evaluation (exact expectation)
};

CostAssessment assess_cost(const AreaResult& area, const BuildUp& buildup);

// Monte-Carlo counterpart (used by Fig-4 unit-count reproduction and the
// MC-vs-analytic ablation).
moe::McReport assess_cost_monte_carlo(const AreaResult& area, const BuildUp& buildup,
                                      const moe::McOptions& options = {});

// ---------------------------------------------------------------------------
// Compiled path: everything build_flow() derives from sources *other* than
// the build-up's ProductionData, captured once.  A parameter sweep then
// re-costs the same physical build-up under W different ProductionData
// vectors without reconstructing a FlowModel (no strings, no vectors, no
// per-evaluation allocation at all).
struct CompiledCostModel {
  double substrate_cost = 0.0;      // mm2_to_cm2(substrate area) * cost/cm2
  double substrate_fab_yield = 1.0;
  bool integrated_passive_steps = false;  // the structural Fig-4 steps
  tech::DieAttach die_attach = tech::DieAttach::PackagedSmt;
  int bond_count = 0;
  int smd_count = 0;
  double smd_parts_cost = 0.0;
  bool smd_on_carrier = false;
  bool uses_laminate = false;
  bool smd_on_laminate = false;
};

CompiledCostModel compile_cost_model(const AreaResult& area, const BuildUp& buildup);

// ---------------------------------------------------------------------------
// Flat numeric flow: the Fig-4 steps of one (model, production data) pair as
// plain numbers.  One emitter in cost_assess.cpp writes both this and
// build_flow()'s FlowModel, step for step, so the two cannot drift; the
// compiled and scenario-grid walks read it through walk_flow_steps().

// Upper bound on steps: fabricate + chips + wire bonds + KGD screening +
// chiplet bonding + SMD + functional test + package + laminate SMD + final
// test (the structural zero-cost steps are left out of a flat flow).
inline constexpr std::size_t kMaxFlowSteps = 10;

// A component lot's booking: `count` parts at `unit_cost` into `category`.
struct FlatLot {
  double unit_cost;
  int count;
  moe::CostCategory category;
};

// Every field is written by the emitter (a batch reuses one FlatFlow across
// lanes, so none is default-initialized).
struct FlatStep {
  bool is_test;
  moe::CostCategory category;
  // Non-test: s.cost + s.cost_per_component * s.component_count() of the
  // FlowModel step (the lots are booked separately); test: the test cost.
  double cost;
  double lambda;    // non-test: Step::added_fault_intensity()
  double coverage;  // test only
  int n_lots;       // lots[0, n_lots) are set
  FlatLot lots[kMaxProductionDies];  // the chip pair or one lot per die
};
static_assert(kMaxProductionDies >= 2, "the chip pair needs two lots");

struct FlatFlow {
  std::size_t n_steps = 0;  // steps[0, n_steps) are set
  FlatStep steps[kMaxFlowSteps];

  std::size_t size() const { return n_steps; }
  const FlatStep& operator[](std::size_t i) const { return steps[i]; }
};

// The flat flow of `pd` on a compiled build-up.  Rejects malformed
// production data exactly as build_flow() does.
FlatFlow flatten_flow(const CompiledCostModel& model, const ProductionData& pd);

// The walk-kernel policy members every walk over a flat flow shares (see
// flow_walk_kernel.hpp): the step kind and coverage are plain fields, and a
// flat flow never reworks.
struct FlatWalkPolicyBase {
  static bool is_test(const FlatStep& s) { return s.is_test; }
  static double coverage(const FlatStep& s) { return s.coverage; }
  static double rework(const FlatStep& /*s*/, double /*detected*/) { return 0.0; }
  static void on_scrapped(double /*scrapped*/) {}
};

// The numeric core of a CostReport: what the batched assessment pipeline
// keeps per (sweep point, build-up).
struct CostSummary {
  double volume = 0.0;
  double shipped_fraction = 0.0;
  double shipped_units = 0.0;
  double good_fraction = 0.0;
  double escaped_defect_rate = 0.0;
  double direct_cost = 0.0;
  double chip_cost_direct = 0.0;
  double yield_loss_per_shipped = 0.0;
  double nre_per_shipped = 0.0;
  double final_cost_per_shipped = 0.0;
  double total_spend_per_started = 0.0;
};

// Cost a compiled model under one ProductionData vector.  Every field is
// bit-identical to evaluate_analytic(build_flow(area, b')) where b' is the
// compiled build-up with its production data replaced by `pd` — the golden
// and pipeline-equivalence tests enforce this down to the last ulp.
// (Implemented as a one-lane call of the batched path below.)
CostSummary evaluate_compiled_cost(const CompiledCostModel& model, const ProductionData& pd);

// ---------------------------------------------------------------------------
// Batched walk: cost W (model, production-data) lanes per call.
//
// Each lane's flat flow is walked through the shared flow-walk kernel.  The
// lanes of one call share a memo of the pure transcendental terms — a
// step's fault intensity, reused while its yield operands repeat, and the
// test-step and escape exponentials, reused while their arguments do — so
// a sweep whose yields rarely vary pays for each -ln / exp once, while
// every lane stays bit-identical to its scalar evaluate_compiled_cost()
// call and the batch split never changes a bit.

// The assessment pipeline's chunk width: the lanes one evaluate() worker
// hands to a single batched call (and so the reach of the shared memo).
inline constexpr std::size_t kCostBatchLanes = 8;

// One lane of a batched evaluation.  Models may differ across lanes (a
// sensitivity sweep perturbs the compiled substrate cost/yield per lane).
struct CostEvalPoint {
  const CompiledCostModel* model = nullptr;
  const ProductionData* pd = nullptr;
};

// Cost `n` lanes, writing out[i] for points[i].  Any n and any mix of
// models and step structures is accepted.
void evaluate_compiled_cost_batch(const CostEvalPoint* points, std::size_t n,
                                  CostSummary* out);

}  // namespace ipass::core
