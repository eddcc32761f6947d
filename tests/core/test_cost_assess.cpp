#include "core/cost_assess.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/scenario_grid.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "gps/table2.hpp"
#include "kits/registry.hpp"

namespace ipass::core {
namespace {

struct Fixture {
  FunctionalBom bom = gps::gps_front_end_bom();
  TechKits kits;
  gps::ConfidentialCosts cc = gps::calibrated_confidential_costs();

  AreaResult area(const BuildUp& b) const { return assess_area(bom, b, kits); }
};

TEST(CostAssess, FlowStructurePcb) {
  Fixture fx;
  const BuildUp b = gps::buildup_pcb_smd(fx.cc);
  const moe::FlowModel flow = build_flow(fx.area(b), b);
  // PCB: fabricate, chip SMT, SMD mounting, final test -- no packaging, no
  // functional test, no paste/rerouting steps.
  int tests = 0, packages = 0, processes = 0;
  for (const moe::Step& s : flow.steps()) {
    if (s.kind == moe::Step::Kind::Test) ++tests;
    if (s.kind == moe::Step::Kind::Package) ++packages;
    if (s.kind == moe::Step::Kind::Process) ++processes;
  }
  EXPECT_EQ(tests, 1);
  EXPECT_EQ(packages, 0);
  EXPECT_EQ(processes, 0);
}

TEST(CostAssess, FlowStructureIpSubstrateShowsFig4Steps) {
  Fixture fx;
  const BuildUp b = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const moe::FlowModel flow = build_flow(fx.area(b), b);
  bool paste = false, rerouting = false, functional = false, laminate = false;
  for (const moe::Step& s : flow.steps()) {
    if (s.name == "Paste impression") paste = true;
    if (s.name == "Rerouting") rerouting = true;
    if (s.name == "Functional test") functional = true;
    if (s.name.find("laminate") != std::string::npos) laminate = true;
  }
  EXPECT_TRUE(paste);
  EXPECT_TRUE(rerouting);
  EXPECT_TRUE(functional);
  EXPECT_TRUE(laminate);
}

TEST(CostAssess, WireBondStepOnlyForBuildUp2) {
  Fixture fx;
  const BuildUp b2 = gps::buildup_mcm_wb_smd(fx.cc);
  const moe::FlowModel f2 = build_flow(fx.area(b2), b2);
  bool wb2 = false;
  for (const moe::Step& s : f2.steps()) {
    if (s.name == "Wire bonding") {
      wb2 = true;
      // 212 bonds at 0.01 each.
      EXPECT_NEAR(s.cost, 2.12, 1e-12);
    }
  }
  EXPECT_TRUE(wb2);
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const moe::FlowModel f3 = build_flow(fx.area(b3), b3);
  for (const moe::Step& s : f3.steps()) EXPECT_NE(s.name, "Wire bonding");
}

TEST(CostAssess, SubstrateCostScalesWithArea) {
  Fixture fx;
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const AreaResult area = fx.area(b3);
  const moe::FlowModel flow = build_flow(area, b3);
  const moe::Step& fab = flow.steps().front();
  EXPECT_EQ(fab.kind, moe::Step::Kind::Fabricate);
  EXPECT_NEAR(fab.cost, area.substrate.area_mm2 / 100.0 * 2.25, 1e-9);
}

TEST(CostAssess, BareDiceCheaperButLowerYield) {
  Fixture fx;
  const BuildUp b1 = gps::buildup_pcb_smd(fx.cc);
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const moe::CostReport r1 = assess_cost(fx.area(b1), b1).report;
  const moe::CostReport r3 = assess_cost(fx.area(b3), b3).report;
  // Direct chip spend: packaged > bare.
  EXPECT_GT(r1.direct_ledger.get(moe::CostCategory::Chips),
            r3.direct_ledger.get(moe::CostCategory::Chips));
  // But build-up 3 ships fewer good units ("yield loss ... not fully
  // tested chips" + 90% substrate).
  EXPECT_GT(r1.shipped_fraction, r3.shipped_fraction);
}

TEST(CostAssess, YieldSemanticsMatter) {
  Fixture fx;
  const BuildUp per_step = gps::buildup_mcm_wb_smd(fx.cc, YieldSemantics::PerStep);
  const BuildUp per_joint = gps::buildup_mcm_wb_smd(fx.cc, YieldSemantics::PerJoint);
  const double c_step =
      assess_cost(fx.area(per_step), per_step).report.final_cost_per_shipped;
  const double c_joint =
      assess_cost(fx.area(per_joint), per_joint).report.final_cost_per_shipped;
  // 212 bonds and 112 placements at per-joint yields scrap more units.
  EXPECT_GT(c_joint, c_step);
}

TEST(CostAssess, MonteCarloMatchesAnalytic) {
  Fixture fx;
  const BuildUp b4 = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const AreaResult area = fx.area(b4);
  const moe::CostReport exact = assess_cost(area, b4).report;
  moe::McOptions opt;
  opt.samples = 60000;
  const moe::McReport mc = assess_cost_monte_carlo(area, b4, opt);
  EXPECT_NEAR(mc.report.final_cost_per_shipped, exact.final_cost_per_shipped,
              3.0 * mc.final_cost_ci95 + 1e-9);
}

// A known-good-die screen with escape e lets the fraction e of a die's
// latent intensity -ln(yield) into the stack: a perfect screen (e = 0)
// ships like a perfect die, a half screen injects half the intensity.
TEST(CostAssess, KgdScreenThinsTheDieIntensity) {
  Fixture fx;
  const BuildUp base = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const AreaResult area = fx.area(base);
  const auto shipped = [&](double yield, double escape) {
    BuildUp b = base;
    DieSpec die;
    die.name = "chiplet";
    die.yield = yield;
    die.kgd_escape = escape;
    b.production.dies = {die};
    const double analytic = assess_cost(area, b).report.shipped_fraction;
    EXPECT_EQ(analytic, evaluate_compiled_cost(compile_cost_model(area, b), b.production)
                            .shipped_fraction);
    return analytic;
  };
  EXPECT_EQ(shipped(0.8, 0.0), shipped(1.0, 1.0));
  EXPECT_LT(shipped(0.8, 1.0), shipped(0.8, 0.5));
  const double lambda_full = -std::log(shipped(0.8, 1.0) / shipped(1.0, 1.0));
  const double lambda_half = -std::log(shipped(0.8, 0.5) / shipped(1.0, 1.0));
  EXPECT_GT(lambda_half, 0.0);
  EXPECT_LT(lambda_half, lambda_full);
}

// ---------------------------------------------------------------------------
// Batched walk: every lane bit-identical to its scalar evaluation, for any
// lane mix and any batch split.

bool summary_bits_equal(const CostSummary& a, const CostSummary& b) {
  static_assert(sizeof(CostSummary) == 11 * sizeof(double),
                "CostSummary gained a member; update the bit comparison");
  return std::memcmp(&a, &b, sizeof(CostSummary)) == 0;
}

// Randomly perturbed production data; roughly every third vector disables
// the functional test, changing the flattened step structure mid-batch.
ProductionData random_pd(const ProductionData& base, Pcg32& rng, bool drop_functional) {
  ProductionData pd = base;
  pd.rf_chip_cost *= rng.uniform(0.5, 2.0);
  pd.rf_chip_yield = rng.uniform(0.9, 1.0);
  pd.dsp_cost *= rng.uniform(0.5, 2.0);
  pd.dsp_yield = rng.uniform(0.9, 1.0);
  pd.chip_assembly_cost *= rng.uniform(0.5, 2.0);
  pd.chip_assembly_yield = rng.uniform(0.9, 1.0);
  pd.wire_bond_cost *= rng.uniform(0.5, 2.0);
  pd.wire_bond_yield = rng.uniform(0.99, 1.0);
  pd.smd_assembly_cost *= rng.uniform(0.5, 2.0);
  pd.smd_assembly_yield = rng.uniform(0.99, 1.0);
  pd.functional_test_cost = rng.uniform(0.0, 10.0);
  pd.functional_test_coverage = drop_functional ? 0.0 : rng.uniform(0.3, 0.95);
  pd.packaging_cost = rng.uniform(0.0, 5.0);
  pd.packaging_yield = rng.uniform(0.9, 1.0);
  pd.final_test_cost *= rng.uniform(0.5, 2.0);
  pd.final_test_coverage = rng.uniform(0.8, 0.999);
  pd.nre_total = rng.uniform(0.0, 1e5);
  pd.volume = rng.uniform(1e3, 1e6);
  pd.semantics = rng.bernoulli(0.3) ? YieldSemantics::PerJoint : YieldSemantics::PerStep;
  return pd;
}

TEST(CostAssessBatch, EveryLaneMatchesScalarBitwise) {
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  Pcg32 rng(2026);
  for (const BuildUp& b : study.buildups) {
    const AreaResult area = fx.area(b);
    const CompiledCostModel model = compile_cost_model(area, b);
    constexpr std::size_t kN = 37;  // several full groups plus a ragged tail
    std::vector<ProductionData> pds;
    pds.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      pds.push_back(random_pd(b.production, rng, i % 3 == 0));
    }
    std::vector<CostEvalPoint> lanes(kN);
    for (std::size_t i = 0; i < kN; ++i) lanes[i] = {&model, &pds[i]};
    std::vector<CostSummary> batch(kN);
    evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(summary_bits_equal(batch[i], evaluate_compiled_cost(model, pds[i])))
          << b.name << " lane " << i;
    }
  }
}

TEST(CostAssessBatch, MixedModelsAcrossLanes) {
  // Alternating compiled models (different structure every lane) share one
  // batch, and so its memo, without changing any bit.
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const BuildUp& b1 = study.buildups[0];
  const BuildUp& b4 = study.buildups[3];
  const CompiledCostModel m1 = compile_cost_model(fx.area(b1), b1);
  const CompiledCostModel m4 = compile_cost_model(fx.area(b4), b4);

  Pcg32 rng(7);
  constexpr std::size_t kN = 11;
  std::vector<ProductionData> pds;
  std::vector<CostEvalPoint> lanes(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const BuildUp& b = i % 2 ? b4 : b1;
    pds.push_back(random_pd(b.production, rng, false));
  }
  for (std::size_t i = 0; i < kN; ++i) lanes[i] = {i % 2 ? &m4 : &m1, &pds[i]};
  std::vector<CostSummary> batch(kN);
  evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(summary_bits_equal(
        batch[i], evaluate_compiled_cost(i % 2 ? m4 : m1, pds[i])))
        << "lane " << i;
  }
}

TEST(CostAssessBatch, SplitInvariance) {
  // One call over all lanes vs many calls over slices: identical bits
  // (group boundaries move, lane arithmetic must not).
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const BuildUp& b = study.buildups[3];
  const CompiledCostModel model = compile_cost_model(fx.area(b), b);
  Pcg32 rng(99);
  constexpr std::size_t kN = 23;
  std::vector<ProductionData> pds;
  for (std::size_t i = 0; i < kN; ++i) pds.push_back(random_pd(b.production, rng, i % 4 == 0));
  std::vector<CostEvalPoint> lanes(kN);
  for (std::size_t i = 0; i < kN; ++i) lanes[i] = {&model, &pds[i]};

  std::vector<CostSummary> whole(kN);
  evaluate_compiled_cost_batch(lanes.data(), kN, whole.data());
  std::vector<CostSummary> sliced(kN);
  for (std::size_t i = 0; i < kN; i += 3) {
    const std::size_t n = std::min<std::size_t>(3, kN - i);
    evaluate_compiled_cost_batch(lanes.data() + i, n, sliced.data() + i);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(summary_bits_equal(whole[i], sliced[i])) << "lane " << i;
  }
}


// ---------------------------------------------------------------------------
// Compiled path vs the analytic reference: every CostSummary field must equal
// evaluate_analytic(build_flow(area, b')) to the bit, where b' is the
// build-up with its production data replaced, on random inputs that reach
// every step of the flow (dies, KGD screens, bonding, PerJoint yields,
// dropped functional tests).

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_matches_analytic(const CostSummary& got, const moe::CostReport& want,
                             const std::string& what) {
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"volume", {got.volume, want.volume}},
      {"shipped_fraction", {got.shipped_fraction, want.shipped_fraction}},
      {"shipped_units", {got.shipped_units, want.shipped_units}},
      {"good_fraction", {got.good_fraction, want.good_fraction}},
      {"escaped_defect_rate", {got.escaped_defect_rate, want.escaped_defect_rate}},
      {"direct_cost", {got.direct_cost, want.direct_cost}},
      {"chip_cost_direct", {got.chip_cost_direct, want.chip_cost_direct()}},
      {"yield_loss_per_shipped", {got.yield_loss_per_shipped, want.yield_loss_per_shipped}},
      {"nre_per_shipped", {got.nre_per_shipped, want.nre_per_shipped}},
      {"final_cost_per_shipped", {got.final_cost_per_shipped, want.final_cost_per_shipped}},
      {"total_spend_per_started",
       {got.total_spend_per_started, want.total_spend_per_started}},
  };
  static_assert(sizeof(CostSummary) == 11 * sizeof(double),
                "CostSummary gained a member; compare it here too");
  for (const auto& [name, pair] : fields) {
    EXPECT_TRUE(bits_equal(pair.first, pair.second))
        << what << " " << name << ": " << pair.first << " vs " << pair.second;
  }
}

// One costed build-up: its area and compiled model, fixed across lanes.
struct CostCase {
  BuildUp buildup;
  AreaResult area;
  CompiledCostModel model;
};

std::vector<CostCase> equivalence_cases() {
  std::vector<CostCase> cases;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  for (const BuildUp& b : study.buildups) {
    const AreaResult area = assess_area(study.bom, b, study.kits);
    cases.push_back({b, area, compile_cost_model(area, b)});
  }
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const kits::ProcessKit& si = registry.at(kits::kSiInterposerKit);
  const TechKits si_kits = kits::apply_passives(si);
  for (const BuildUp& b : kits::make_buildups(si)) {
    const AreaResult area = assess_area(study.bom, b, si_kits);
    cases.push_back({b, area, compile_cost_model(area, b)});
  }
  return cases;
}

// Random production vector with 0-8 dies, random KGD screens and bonding.
ProductionData random_chiplet_pd(const ProductionData& base, Pcg32& rng) {
  ProductionData pd = random_pd(base, rng, rng.bernoulli(0.3));
  pd.semantics = rng.bernoulli(0.5) ? YieldSemantics::PerJoint : YieldSemantics::PerStep;
  pd.bond_cost = rng.uniform(0.0, 2.0);
  pd.bond_yield = rng.uniform(0.95, 1.0);
  pd.dies.clear();
  const std::uint32_t n_dies = rng.below(static_cast<std::uint32_t>(kMaxProductionDies) + 1);
  for (std::uint32_t d = 0; d < n_dies; ++d) {
    DieSpec die;
    die.name = "die-" + std::to_string(d);
    die.cost = rng.uniform(0.5, 30.0);
    die.yield = rng.uniform(0.7, 1.0);
    die.kgd_test_cost = rng.uniform(0.0, 1.5);
    die.kgd_escape = rng.bernoulli(0.2) ? 1.0 : rng.uniform(0.0, 1.0);
    die.nre = rng.uniform(0.0, 5e4);
    pd.dies.push_back(die);
  }
  return pd;
}

// `like` with fresh costs, NRE and volume but every yield, escape, coverage
// and the semantics copied bit for bit: a lane whose fault operands repeat.
ProductionData with_same_yields(const ProductionData& like, Pcg32& rng) {
  ProductionData pd = like;
  pd.rf_chip_cost = rng.uniform(1.0, 40.0);
  pd.dsp_cost = rng.uniform(1.0, 40.0);
  pd.chip_assembly_cost = rng.uniform(0.0, 2.0);
  pd.wire_bond_cost = rng.uniform(0.0, 0.05);
  pd.smd_assembly_cost = rng.uniform(0.0, 0.2);
  pd.functional_test_cost = rng.uniform(0.0, 10.0);
  pd.packaging_cost = rng.uniform(0.0, 5.0);
  pd.final_test_cost = rng.uniform(1.0, 20.0);
  pd.nre_total = rng.uniform(0.0, 1e5);
  pd.volume = rng.uniform(1e3, 1e6);
  pd.bond_cost = rng.uniform(0.0, 2.0);
  for (DieSpec& d : pd.dies) {
    d.cost = rng.uniform(0.5, 30.0);
    d.kgd_test_cost = rng.uniform(0.0, 1.5);
    d.nre = rng.uniform(0.0, 5e4);
  }
  return pd;
}

// `like` with exactly one fault operand moved (a yield, a die's screen
// escape, the final-test coverage or the yield semantics): every other bit
// repeats, so the memo must notice that one operand on its own.
ProductionData with_one_operand_moved(const ProductionData& like, Pcg32& rng) {
  ProductionData pd = like;
  std::vector<double*> yields = {&pd.rf_chip_yield,       &pd.dsp_yield,
                                 &pd.chip_assembly_yield, &pd.wire_bond_yield,
                                 &pd.smd_assembly_yield,  &pd.packaging_yield,
                                 &pd.bond_yield,          &pd.final_test_coverage};
  std::vector<double*> escapes;
  for (DieSpec& d : pd.dies) {
    yields.push_back(&d.yield);
    escapes.push_back(&d.kgd_escape);
  }
  const std::uint32_t pick =
      rng.below(static_cast<std::uint32_t>(yields.size() + escapes.size() + 1));
  if (pick < yields.size()) {
    *yields[pick] *= rng.uniform(0.95, 0.9999);
  } else if (pick < yields.size() + escapes.size()) {
    double& escape = *escapes[pick - yields.size()];
    escape = escape == 1.0 ? rng.uniform(0.0, 1.0) : 1.0;
  } else {
    pd.semantics = pd.semantics == YieldSemantics::PerJoint ? YieldSemantics::PerStep
                                                            : YieldSemantics::PerJoint;
  }
  return pd;
}

CostSummary batch_then_check_lane(const CostCase& c, const ProductionData& pd,
                                  const CostSummary& batched, const std::string& what) {
  BuildUp b = c.buildup;
  b.production = pd;
  expect_matches_analytic(batched, moe::evaluate_analytic(build_flow(c.area, b)), what);
  const CostSummary scalar = evaluate_compiled_cost(c.model, pd);
  EXPECT_TRUE(summary_bits_equal(batched, scalar)) << what << " (scalar call)";
  return scalar;
}

TEST(CostAssessEquivalence, CompiledPathMatchesAnalyticOnRandomInputs) {
  const std::vector<CostCase> cases = equivalence_cases();
  ASSERT_GE(cases.size(), 6u);  // 4 GPS build-ups + the si-interposer variants
  Pcg32 rng(15);
  constexpr std::size_t kN = 96;
  for (const CostCase& c : cases) {
    // Runs of lanes with bit-equal fault operands (memo hits) between
    // freshly drawn ones and ones with a single operand moved (misses).
    std::vector<ProductionData> pds;
    pds.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      const std::uint32_t kind = i == 0 ? 0 : rng.below(3);
      pds.push_back(kind == 0   ? random_chiplet_pd(c.buildup.production, rng)
                    : kind == 1 ? with_same_yields(pds.back(), rng)
                                : with_one_operand_moved(pds.back(), rng));
    }
    std::vector<CostEvalPoint> lanes(kN);
    for (std::size_t i = 0; i < kN; ++i) lanes[i] = {&c.model, &pds[i]};
    std::vector<CostSummary> batch(kN);
    evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
    for (std::size_t i = 0; i < kN; ++i) {
      batch_then_check_lane(c, pds[i], batch[i],
                            c.buildup.name + " lane " + std::to_string(i) + " (" +
                                std::to_string(pds[i].dies.size()) + " dies)");
    }
  }
}

TEST(CostAssessEquivalence, AlternatingBuildUpsWithSharedYieldBits) {
  // Neighbouring lanes cost different build-ups under bit-equal yields:
  // equal fault operands over a different step structure.
  const std::vector<CostCase> cases = equivalence_cases();
  Pcg32 rng(1515);
  constexpr std::size_t kN = 24;
  for (std::size_t a = 0; a < cases.size(); ++a) {
    const CostCase& ca = cases[a];
    const CostCase& cb = cases[(a + 1) % cases.size()];
    std::vector<ProductionData> pds;
    pds.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      if (i % 2 == 1) {
        pds.push_back(with_same_yields(pds.back(), rng));
      } else if (i > 0 && rng.bernoulli(0.5)) {
        pds.push_back(with_same_yields(pds.back(), rng));
      } else {
        pds.push_back(random_chiplet_pd(ca.buildup.production, rng));
      }
    }
    std::vector<CostEvalPoint> lanes(kN);
    for (std::size_t i = 0; i < kN; ++i) lanes[i] = {i % 2 ? &cb.model : &ca.model, &pds[i]};
    std::vector<CostSummary> batch(kN);
    evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
    for (std::size_t i = 0; i < kN; ++i) {
      const CostCase& c = i % 2 ? cb : ca;
      batch_then_check_lane(c, pds[i], batch[i],
                            ca.buildup.name + "/" + cb.buildup.name + " lane " +
                                std::to_string(i));
    }
  }
}

// A negative NRE total is rejected by name on every cost path, even when
// per-die NRE would lift the effective total back above zero.
TEST(CostAssessPreconditions, NegativeNreTotalRejectedOnEveryPath) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  BuildUp b = study.buildups[3];
  b.production.nre_total = -5.0;
  DieSpec die;
  die.name = "chiplet";
  die.nre = 10.0;
  b.production.dies = {die};
  const AreaResult area = assess_area(study.bom, b, study.kits);

  const auto expect_named = [](const auto& call, const char* path) {
    try {
      call();
      ADD_FAILURE() << path << " accepted an invalid nre_total";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("nre_total"), std::string::npos)
          << path << ": " << e.what();
    }
  };
  expect_named([&] { assess_cost(area, b); }, "assess_cost");
  expect_named([&] { evaluate_compiled_cost(compile_cost_model(area, b), b.production); },
               "evaluate_compiled_cost");
  ScenarioGrid grid;
  grid.buildups = {study.buildups[0], b};
  grid.corners = {ProcessCorner{}};
  grid.volumes = {1e4};
  expect_named([&] { evaluate_scenario_grid(study.bom, study.kits, grid, 1); },
               "evaluate_scenario_grid");

  b.production.nre_total = std::numeric_limits<double>::infinity();
  b.production.dies.clear();
  expect_named([&] { assess_cost(area, b); }, "assess_cost (infinite)");
}

}  // namespace
}  // namespace ipass::core
