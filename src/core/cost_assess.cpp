#include "core/cost_assess.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "core/flow_walk_kernel.hpp"

namespace ipass::core {

namespace {

using moe::CostCategory;
using moe::FixedYield;
using moe::Ledger;
using moe::PerJointYield;
using moe::YieldSpec;

YieldSpec step_yield(double value, int joints, YieldSemantics semantics) {
  if (semantics == YieldSemantics::PerJoint && joints > 1) {
    return PerJointYield{value, joints};
  }
  return FixedYield{value};
}

// Shared precondition gate of every cost path: malformed production data is
// rejected up front with a message naming the field (and the die), instead
// of surfacing as a generic FlowModel or ComponentInput error from deep
// inside a walk.
void check_production(const ProductionData& pd) {
  require(pd.volume > 0.0, "ProductionData: volume must be positive");
  require(pd.nre_total >= 0.0 && std::isfinite(pd.nre_total),
          "ProductionData: nre_total must be finite and non-negative");
  require(!(pd.functional_test_coverage > 1.0),
          "ProductionData: functional_test_coverage must be <= 1 (<= 0 skips the test)");
  require(pd.final_test_coverage >= 0.0 && pd.final_test_coverage <= 1.0,
          "ProductionData: final_test_coverage must be in [0, 1]");
  if (pd.dies.size() > kMaxProductionDies) {
    throw PreconditionError(
        strf("ProductionData: %zu dies exceed the supported maximum of %zu",
             pd.dies.size(), kMaxProductionDies));
  }
  if (pd.dies.empty()) return;
  for (std::size_t i = 0; i < pd.dies.size(); ++i) {
    const DieSpec& d = pd.dies[i];
    const auto fail = [&](const char* field, const char* what) {
      throw PreconditionError(strf("ProductionData: dies[%zu] '%s': %s %s", i,
                                   d.name.c_str(), field, what));
    };
    if (!(d.cost >= 0.0 && std::isfinite(d.cost))) {
      fail("cost", "must be a finite non-negative cost");
    }
    if (!(d.yield > 0.0 && d.yield <= 1.0)) fail("yield", "must be a yield in (0, 1]");
    if (!(d.kgd_test_cost >= 0.0 && std::isfinite(d.kgd_test_cost))) {
      fail("kgd_test_cost", "must be a finite non-negative cost");
    }
    if (!(d.kgd_escape >= 0.0 && d.kgd_escape <= 1.0)) {
      fail("kgd_escape", "must be an escape probability in [0, 1]");
    }
    if (!(d.nre >= 0.0 && std::isfinite(d.nre))) {
      fail("nre", "must be finite and non-negative");
    }
  }
  require(pd.bond_cost >= 0.0 && std::isfinite(pd.bond_cost),
          "ProductionData: bond_cost must be a finite non-negative cost");
  require(pd.bond_yield > 0.0 && pd.bond_yield <= 1.0,
          "ProductionData: bond_yield must be a yield in (0, 1]");
}

// A component lot as the emitter hands it to a sink.
struct Lot {
  const char* name;
  int count;
  double unit_cost;
  double yield;            // delivered yield
  double kgd_escape;       // its known-good-die screen's escape (1 = none)
  CostCategory category;
};

// The yield a lot effectively brings into the step: what survives its
// screen.  An unscreened lot keeps its raw yield (pow(y, 1) is y anyway).
double incoming_yield(const Lot& lot) {
  return lot.kgd_escape == 1.0 ? lot.yield : kgd_escaped_yield(lot.yield, lot.kgd_escape);
}

// The Fig-4 production flow of `pd` on a compiled build-up — the one place
// its step sequence is written.  Sinks receive FlowModel-builder-shaped
// calls:
//   fabricate(cost, yield)                    the carrier, named by the sink
//   structural(name)                          zero cost, unit yield
//   process(name, cost, yield, category)
//   assemble(name, cost_per_component, yield, lots, n_lots)
//   test(name, cost, coverage)
//   package(name, cost, yield)
// Callers gate `pd` through check_production() first.
template <class Sink>
void emit_flow(const CompiledCostModel& m, const ProductionData& pd, Sink& sink) {
  // --- carrier fabrication -------------------------------------------------
  sink.fabricate(m.substrate_cost, FixedYield{m.substrate_fab_yield});
  if (m.integrated_passive_steps) {
    // Structural steps of Fig 4; their cost and yield are folded into the
    // per-cm^2 substrate price and fab yield above.
    sink.structural("Paste impression");
    sink.structural("Rerouting");
    sink.structural("Rerouting");
  }

  // --- dice ---------------------------------------------------------------
  const bool packaged = m.die_attach == tech::DieAttach::PackagedSmt;
  const Lot dice[] = {
      {packaged ? "RF chip (TQFP)" : "RF chip (bare die)", 1, pd.rf_chip_cost,
       pd.rf_chip_yield, 1.0, CostCategory::Chips},
      {packaged ? "DSP correlator (PQFP)" : "DSP correlator (bare die)", 1, pd.dsp_cost,
       pd.dsp_yield, 1.0, CostCategory::Chips},
  };
  const char* attach_name = packaged ? "Chip assembly (SMT)"
                            : m.die_attach == tech::DieAttach::WireBond
                                ? "Dice bonding"
                                : "Flip-chip attach";
  sink.assemble(attach_name, pd.chip_assembly_cost,
                step_yield(pd.chip_assembly_yield, 2, pd.semantics), dice, 2);

  if (m.die_attach == tech::DieAttach::WireBond) {
    // Bond count from the die specs (68 + 144 = 212 in the paper).
    sink.process("Wire bonding", pd.wire_bond_cost * m.bond_count,
                 step_yield(pd.wire_bond_yield, m.bond_count, pd.semantics),
                 CostCategory::Assembly);
  }

  // --- chiplet dice (2.5D multi-die extension) -----------------------------
  if (!pd.dies.empty()) {
    // Known-good-die screening: a pure per-unit spend — every started module
    // pays one screen per die; the screen's yield effect rides on the bonded
    // components below through kgd_escaped_yield.
    double kgd_cost = 0.0;
    for (const DieSpec& d : pd.dies) kgd_cost += d.kgd_test_cost;
    sink.process("KGD screening", kgd_cost, FixedYield{1.0}, CostCategory::Test);

    // Each die is a count-1 component whose incoming yield is what survives
    // its screen; the bond yield compounds per attach.
    Lot chiplets[kMaxProductionDies];
    const int n_dies = static_cast<int>(pd.dies.size());
    for (int i = 0; i < n_dies; ++i) {
      const DieSpec& d = pd.dies[i];
      chiplets[i] = {d.name.c_str(), 1, d.cost, d.yield, d.kgd_escape, CostCategory::Chips};
    }
    sink.assemble("Chiplet bonding", pd.bond_cost, PerJointYield{pd.bond_yield, n_dies},
                  chiplets, n_dies);
  }

  // --- SMD passives (on the carrier and/or the laminate) ------------------
  const auto mount_smds = [&](const char* name) {
    const Lot smds[] = {{"SMD passives", m.smd_count, m.smd_parts_cost / m.smd_count, 1.0,
                         1.0, CostCategory::Passives}};
    sink.assemble(name, pd.smd_assembly_cost,
                  step_yield(pd.smd_assembly_yield, m.smd_count, pd.semantics), smds, 1);
  };
  if (m.smd_on_carrier) mount_smds("SMD mounting");

  // --- functional test before packaging (Fig 4) ---------------------------
  if (pd.functional_test_coverage > 0.0) {
    sink.test("Functional test", pd.functional_test_cost, pd.functional_test_coverage);
  }

  // --- packaging -----------------------------------------------------------
  if (m.uses_laminate) {
    sink.package("Mount on laminate (BGA)", pd.packaging_cost,
                 FixedYield{pd.packaging_yield});
    if (m.smd_count > 0 && m.smd_on_laminate) mount_smds("SMD mounting (laminate)");
  }

  // --- final test -----------------------------------------------------------
  sink.test("Final test", pd.final_test_cost, pd.final_test_coverage);
}

// Sink writing the FlowModel the report, Monte-Carlo and dot paths read.
struct FlowModelSink {
  const std::string& carrier_name;
  moe::FlowModel flow;

  void fabricate(double cost, const YieldSpec& yield) {
    flow.fabricate(carrier_name, cost, yield);
  }
  void structural(const char* name) {
    flow.process(name, 0.0, FixedYield{1.0}, CostCategory::Substrate);
  }
  void process(const char* name, double cost, const YieldSpec& yield,
               CostCategory category) {
    flow.process(name, cost, yield, category);
  }
  void assemble(const char* name, double cost_per_component, const YieldSpec& yield,
                const Lot* lots, int n) {
    std::vector<moe::ComponentInput> components;
    for (const Lot* lot = lots; lot != lots + n; ++lot) {
      components.push_back({lot->name, lot->count, lot->unit_cost, incoming_yield(*lot),
                            lot->category});
    }
    flow.assemble(name, 0.0, cost_per_component, yield, std::move(components));
  }
  void test(const char* name, double cost, double coverage) {
    flow.test(name, cost, coverage);
  }
  void package(const char* name, double cost, const YieldSpec& yield) {
    flow.package(name, cost, yield);
  }
};

// Memo slot of one step index: the lambda last computed there and the
// operands it read — the yield spec, then each lot's yield, screen escape
// and count.  The lambda is a pure function of them, so a step whose
// operands repeat reuses it bit for bit, whichever step or build-up wrote
// the slot before.  (== only conflates +0.0/-0.0, which no valid yield is
// and where pow agrees for an escape; a NaN never hits and then fails the
// range checks.)
struct LambdaMemo {
  struct LotOperands {
    double yield;
    double kgd_escape;
    int count;
    double incoming_yield;
  };
  YieldSpec yield;
  LotOperands lots[kMaxProductionDies];
  int n_lots = -1;  // -1 = empty
  double lambda = 0.0;
};

// Sink writing flat flows.  It keeps one memo slot per step index across
// the flows it writes, so each non-test step's fault intensity is reused
// when its operands repeat and recomputed (and checked) otherwise.
class FlatFlowSink {
 public:
  void write(const CompiledCostModel& model, const ProductionData& pd, FlatFlow& out) {
    check_production(pd);
    next_ = out.steps;
    memo_next_ = memo_;
    emit_flow(model, pd, *this);
    out.n_steps = static_cast<std::size_t>(next_ - out.steps);
  }

  void fabricate(double cost, const YieldSpec& yield) {
    step(CostCategory::Substrate, cost, 0.0, yield, nullptr, 0);
  }
  // A zero-cost, unit-yield step books +0.0 into ledgers that never hold
  // -0.0 and adds -ln 1 = -0.0 to the intensity: no bit of the walk moves,
  // so the flat flow leaves it out.
  void structural(const char* /*name*/) {}
  void process(const char* /*name*/, double cost, const YieldSpec& yield,
               CostCategory category) {
    step(category, cost, 0.0, yield, nullptr, 0);
  }
  void assemble(const char* /*name*/, double cost_per_component, const YieldSpec& yield,
                const Lot* lots, int n) {
    step(CostCategory::Assembly, 0.0, cost_per_component, yield, lots, n);
  }
  void test(const char* /*name*/, double cost, double coverage) {
    FlatStep& s = take();
    s.is_test = true;
    s.category = CostCategory::Test;
    s.cost = cost;
    s.lambda = 0.0;
    s.coverage = coverage;
    s.n_lots = 0;
  }
  void package(const char* /*name*/, double cost, const YieldSpec& yield) {
    step(CostCategory::Packaging, cost, 0.0, yield, nullptr, 0);
  }

 private:
  FlatStep& take() {
    ensure(memo_next_ != memo_ + kMaxFlowSteps, "flatten_flow: too many steps");
    ++memo_next_;
    return *next_++;
  }

  // The FlowModel step's `cost + cost_per_component * component_count()`
  // and added fault intensity, with the lots booked separately.
  void step(CostCategory category, double cost, double cost_per_component,
            const YieldSpec& yield, const Lot* lots, int n_lots) {
    LambdaMemo& memo = *memo_next_;
    FlatStep& s = take();
    int part_count = 0;
    for (int i = 0; i < n_lots; ++i) {
      s.lots[i] = {lots[i].unit_cost, lots[i].count, lots[i].category};
      part_count += lots[i].count;
    }
    bool hit = n_lots == memo.n_lots && yield == memo.yield;
    for (int i = 0; hit && i < n_lots; ++i) {
      const LambdaMemo::LotOperands& o = memo.lots[i];
      hit = lots[i].yield == o.yield && lots[i].kgd_escape == o.kgd_escape &&
            lots[i].count == o.count;
    }
    if (!hit) {
      memo.n_lots = -1;  // empty until the new lambda is in (the checks may throw)
      for (int i = 0; i < n_lots; ++i) {
        memo.lots[i] = {lots[i].yield, lots[i].kgd_escape, lots[i].count,
                        incoming_yield(lots[i])};
      }
      memo.lambda = moe::added_fault_intensity(yield, memo.lots, memo.lots + n_lots);
      memo.yield = yield;
      memo.n_lots = n_lots;
    }
    s.is_test = false;
    s.category = category;
    s.cost = cost + cost_per_component * part_count;
    s.lambda = memo.lambda;
    s.coverage = 0.0;
    s.n_lots = n_lots;
  }

  FlatStep* next_ = nullptr;
  LambdaMemo* memo_next_ = nullptr;
  LambdaMemo memo_[kMaxFlowSteps];  // one slot per step index
};

// Transcendental memo shared by the lanes of a batch.  exp is a pure
// function, so equal argument bits give equal result bits — reusing the
// previous value when the argument repeats changes nothing.  In
// calibration-style sweeps the yield inputs rarely vary across points, so
// almost every lane past the first hits the cache.
// (operator== only conflates +0.0/-0.0, where exp agrees too.)
struct ExpCache {
  bool valid = false;
  double arg = 0.0;
  double value = 0.0;

  double operator()(double x) {
    if (!valid || arg != x) {
      valid = true;
      arg = x;
      value = std::exp(x);
    }
    return value;
  }
};

// Ledger-capturing, no-rework instantiation of the shared walk kernel over
// a flat flow.  Test-step exponentials go through the batch's shared
// caches, one slot per test ordinal: the kernel calls exp_value exactly
// once per test step, so the k-th call of every lane is its k-th test.
struct CompiledWalkPolicy : FlatWalkPolicyBase {
  ExpCache* test_exp;  // one slot per test ordinal, shared across lanes
  Ledger spend;
  Ledger unit_acc;

  void book_test(const FlatStep& s, double alive) {
    spend.add(CostCategory::Test, alive * s.cost);
    unit_acc.add(CostCategory::Test, s.cost);
  }

  double exp_value(double x) { return (*test_exp++)(x); }

  static const char* all_scrapped_message() {
    return "evaluate_compiled_cost: everything scrapped";
  }

  void book_step(const FlatStep& s, double alive) {
    spend.add(s.category, alive * s.cost);
    unit_acc.add(s.category, s.cost);
    for (int c = 0; c < s.n_lots; ++c) {
      const FlatLot& lot = s.lots[c];
      spend.add(lot.category, alive * lot.unit_cost * lot.count);
      unit_acc.add(lot.category, lot.unit_cost * lot.count);
    }
  }

  static double added_lambda(const FlatStep& s) { return s.lambda; }
};

}  // namespace

moe::FlowModel build_flow(const AreaResult& area, const BuildUp& buildup) {
  const ProductionData& pd = buildup.production;
  check_production(pd);
  FlowModelSink sink{buildup.substrate.name,
                     moe::FlowModel(buildup.name, pd.volume, effective_nre(pd))};
  emit_flow(compile_cost_model(area, buildup), pd, sink);
  return std::move(sink.flow);
}

CompiledCostModel compile_cost_model(const AreaResult& area, const BuildUp& buildup) {
  CompiledCostModel m;
  m.substrate_cost =
      mm2_to_cm2(area.substrate.area_mm2) * buildup.substrate.cost_per_cm2;
  m.substrate_fab_yield = buildup.substrate.fab_yield;
  m.integrated_passive_steps = buildup.substrate.supports_integrated_passives;
  m.die_attach = buildup.die_attach;
  if (m.die_attach == tech::DieAttach::WireBond) {
    m.bond_count = tech::gps_rf_chip().pad_count + tech::gps_dsp_correlator().pad_count;
  }
  m.smd_count = area.bom.smd_placement_count();
  m.smd_parts_cost = area.bom.smd_parts_cost();
  m.smd_on_carrier = m.smd_count > 0 && !buildup.smd_on_laminate;
  m.uses_laminate = buildup.uses_laminate;
  m.smd_on_laminate = buildup.smd_on_laminate;
  return m;
}

FlatFlow flatten_flow(const CompiledCostModel& model, const ProductionData& pd) {
  FlatFlow flow;
  FlatFlowSink().write(model, pd, flow);
  return flow;
}

void evaluate_compiled_cost_batch(const CostEvalPoint* points, std::size_t n,
                                  CostSummary* out) {
  FlatFlow flow;
  FlatFlowSink flattener;  // its memo spans the batch
  ExpCache test_exp[kMaxFlowSteps];
  ExpCache escape_exp;  // the epilogue's exp(-lambda)
  for (std::size_t w = 0; w < n; ++w) {
    const ProductionData& pd = *points[w].pd;
    flattener.write(*points[w].model, pd, flow);
    CompiledWalkPolicy walk{{}, test_exp, {}, {}};
    const WalkOutcome wo = walk_flow_steps(flow, walk);

    CostSummary r;
    r.volume = pd.volume;
    r.shipped_fraction = wo.alive;
    r.shipped_units = wo.alive * pd.volume;
    const double escape = escape_exp(-wo.lambda);
    r.good_fraction = wo.alive * escape;
    r.escaped_defect_rate = 1.0 - escape;
    r.direct_cost = walk.unit_acc.total();
    r.chip_cost_direct = walk.unit_acc.get(CostCategory::Chips);
    r.total_spend_per_started = walk.spend.total();
    const double nre = effective_nre(pd);
    r.nre_per_shipped = nre / (pd.volume * wo.alive);
    r.final_cost_per_shipped = (r.total_spend_per_started + nre / pd.volume) / wo.alive;
    r.yield_loss_per_shipped =
        r.final_cost_per_shipped - r.direct_cost - r.nre_per_shipped;
    out[w] = r;
  }
}

CostSummary evaluate_compiled_cost(const CompiledCostModel& model, const ProductionData& pd) {
  const CostEvalPoint point{&model, &pd};
  CostSummary out;
  evaluate_compiled_cost_batch(&point, 1, &out);
  return out;
}

CostAssessment assess_cost(const AreaResult& area, const BuildUp& buildup) {
  moe::FlowModel flow = build_flow(area, buildup);
  moe::CostReport report = moe::evaluate_analytic(flow);
  return CostAssessment{std::move(flow), std::move(report)};
}

moe::McReport assess_cost_monte_carlo(const AreaResult& area, const BuildUp& buildup,
                                      const moe::McOptions& options) {
  const moe::FlowModel flow = build_flow(area, buildup);
  return moe::evaluate_monte_carlo(flow, options);
}

}  // namespace ipass::core
