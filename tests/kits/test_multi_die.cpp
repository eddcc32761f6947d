// Multi-die chiplet/SiP studies: the single-die anchor stays golden-pinned
// to the bit, a neutral die list is bit-invisible on every engine, the three
// engines agree on a real chiplet variant, corner scaling reaches the die
// fields (and rejects nonsense corners by name), and sweep_kits exposes the
// partitioning search.
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/export.hpp"
#include "core/partition.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "kits/fleet.hpp"
#include "kits/registry.hpp"

#ifndef IPASS_GOLDEN_DIR
#error "IPASS_GOLDEN_DIR must point at tests/gps/golden"
#endif

namespace ipass::kits {
namespace {

std::string read_golden(const char* name) {
  const std::string path = std::string(IPASS_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

static_assert(sizeof(core::BuildUpSummary) % sizeof(double) == 0,
              "BuildUpSummary gained a non-double member; update the field walks");

void expect_summary_bits(const core::BuildUpSummary& a, const core::BuildUpSummary& b,
                         const char* what) {
  constexpr std::size_t kFields = sizeof(core::BuildUpSummary) / sizeof(double);
  const double* pa = &a.performance;
  const double* pb = &b.performance;
  for (std::size_t f = 0; f < kFields; ++f) {
    EXPECT_TRUE(bits_equal(pa[f], pb[f]))
        << what << " field " << f << ": " << pa[f] << " vs " << pb[f];
  }
}

// The single-die anchor of the whole multi-die generalization: the
// si-interposer kit's original variant (no die list, no KGD/bonding steps)
// swept against the PCB reference must reproduce the committed pre-chiplet
// fleet numbers byte for byte through all three engines (analytic report,
// scenario grid, batched pareto).  This is the ISSUE's acceptance bar: the
// chiplet extension must not move a die_count == 1 study by one ulp.
TEST(MultiDie, SingleDieFleetMatchesGoldenByteForByte) {
  const KitRegistry builtin = builtin_kit_registry();
  KitRegistry restricted;
  restricted.add(builtin.at(kPcbFr4Kit));
  ProcessKit si = builtin.at(kSiInterposerKit);
  si.variants.resize(1);  // the original single-die µ-bump variant
  restricted.add(si);

  KitSweepOptions options;
  options.reference = kPcbFr4Kit;
  options.corners = core::ScenarioGrid::corner_sweep(3, 0.5, 2.0, 0.9, 1.1);
  options.volumes = core::ScenarioGrid::volume_sweep(3, 1e3, 1e6);
  options.threads = 1;
  const KitFleetSummary fleet =
      sweep_kits(restricted, {kPcbFr4Kit, kSiInterposerKit},
                 gps::gps_front_end_bom(), options);
  const KitAssessment& entry = fleet.kits[1];

  std::string out = "{\n\"report\": ";
  out += core::decision_report_json(entry.report);
  out += ",\n\"grid\": ";
  out += core::scenario_grid_summary_json(entry.grid);
  out += ",\n\"batch\": ";
  out += core::batch_result_json(entry.pareto.results);
  out += "}\n";
  EXPECT_EQ(out, read_golden("si_interposer_fleet.json"));
}

// A die list whose every term is the algebraic identity (cost 0, yield 1,
// no screen, free bonding) must be bit-invisible: the walk gains steps but
// every one multiplies by 1 and adds 0 exactly.  Checked on all three
// engines against the die-less study.
TEST(MultiDie, NeutralDieListIsBitNeutralOnEveryEngine) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> plain =
      make_buildups(registry, paper_kit_selection());
  std::vector<core::BuildUp> with_dies = plain;
  for (core::BuildUp& b : with_dies) {
    b.production.bond_cost = 0.0;
    b.production.bond_yield = 1.0;
    b.production.dies = {{"neutral-a"}, {"neutral-b"}};  // all-default = identity
  }

  // Analytic engine.
  const core::DecisionReport ra = core::assess(bom, plain, core::TechKits{});
  const core::DecisionReport rb = core::assess(bom, with_dies, core::TechKits{});
  ASSERT_EQ(ra.assessments.size(), rb.assessments.size());
  for (std::size_t b = 0; b < ra.assessments.size(); ++b) {
    expect_summary_bits(core::summarize(ra.assessments[b]),
                        core::summarize(rb.assessments[b]), "analytic");
  }

  // Pipeline scalar + batched engines.
  const core::AssessmentPipeline pa(bom, plain, core::TechKits{});
  const core::AssessmentPipeline pb(bom, with_dies, core::TechKits{});
  const core::DecisionReport sa = pa.report();
  const core::DecisionReport sb = pb.report();
  for (std::size_t b = 0; b < sa.assessments.size(); ++b) {
    expect_summary_bits(core::summarize(sa.assessments[b]),
                        core::summarize(sb.assessments[b]), "pipeline report");
  }
  const core::BatchAssessmentResult ba = pa.evaluate({core::AssessmentInputs{}}, 1);
  const core::BatchAssessmentResult bb = pb.evaluate({core::AssessmentInputs{}}, 1);
  for (std::size_t b = 0; b < plain.size(); ++b) {
    expect_summary_bits(ba.at(0, b), bb.at(0, b), "batched");
  }
}

// The builtin chiplet variant is a real economy shift: the die list adds
// chip spend, the KGD screen adds test spend, bonding compounds yield — so
// against the same kit's single-die variant the numbers must move in the
// expected directions.
TEST(MultiDie, ChipletDiesMoveTheNumbers) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, {kPcbFr4Kit, kSiInterposerKit});
  ASSERT_EQ(buildups.size(), 3u);  // PCB + single-die + 4-die-SiP variants
  ASSERT_TRUE(buildups[1].production.dies.empty());
  ASSERT_FALSE(buildups[2].production.dies.empty());

  const core::DecisionReport report = core::assess(bom, buildups, core::TechKits{});
  const core::BuildUpSummary single = core::summarize(report.assessments[1]);
  const core::BuildUpSummary chiplet = core::summarize(report.assessments[2]);
  EXPECT_GT(chiplet.direct_cost, single.direct_cost);        // bare dies + bonding
  EXPECT_LT(chiplet.shipped_fraction, single.shipped_fraction);  // compounded yield
  EXPECT_GT(chiplet.nre_per_shipped, single.nre_per_shipped);    // per-die NRE
}

// All walk policies share flow_walk_kernel.hpp, so the chiplet variant must
// come out bit-identical from the analytic report, the pipeline's scalar
// path, and the batched path.
TEST(MultiDie, EnginesAgreeOnChipletVariantToTheBit) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, {kPcbFr4Kit, kSiInterposerKit});

  const core::DecisionReport analytic = core::assess(bom, buildups, core::TechKits{});
  const core::AssessmentPipeline pipeline(bom, buildups, core::TechKits{});
  const core::DecisionReport scalar = pipeline.report();
  const core::BatchAssessmentResult batched =
      pipeline.evaluate({core::AssessmentInputs{}}, 1);
  const core::BatchAssessmentResult threaded =
      pipeline.evaluate(std::vector<core::AssessmentInputs>(5), 8);

  ASSERT_EQ(analytic.assessments.size(), buildups.size());
  for (std::size_t b = 0; b < buildups.size(); ++b) {
    const core::BuildUpSummary a = core::summarize(analytic.assessments[b]);
    expect_summary_bits(a, core::summarize(scalar.assessments[b]), "scalar");
    expect_summary_bits(a, batched.at(0, b), "batched");
    expect_summary_bits(a, threaded.at(4, b), "threaded");
  }
}

// Corner scaling reaches the die fields through the same X-macro table as
// the flat production scalars: cost_scale multiplies die cost and the KGD
// screen, fault_scale exponentiates die and bond yields, escape
// probabilities and NRE stay untouched.
TEST(MultiDie, CornerScalingReachesDieFields) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, {kPcbFr4Kit, kSiInterposerKit});
  const core::AssessmentPipeline pipeline(bom, buildups, core::TechKits{});
  const core::ProductionData& base = buildups[2].production;
  ASSERT_EQ(base.dies.size(), 2u);
  const double volume = base.volume;

  const std::vector<core::AssessmentInputs> points = fleet_scenario_points(
      pipeline, {core::ProcessCorner{2.0, 0.0}}, {volume}, core::FomWeights{});
  ASSERT_EQ(points.size(), 1u);
  const core::ProductionData& pd = points[0].production[2];
  ASSERT_EQ(pd.dies.size(), 2u);
  // Cost-role fields collapse to zero at cost_scale = 0...
  EXPECT_TRUE(bits_equal(pd.bond_cost, 0.0));
  EXPECT_TRUE(bits_equal(pd.dies[0].cost, 0.0));
  EXPECT_TRUE(bits_equal(pd.dies[0].kgd_test_cost, 0.0));
  // ...yield-role fields square at fault_scale = 2...
  EXPECT_TRUE(bits_equal(pd.bond_yield, std::pow(base.bond_yield, 2.0)));
  EXPECT_TRUE(bits_equal(pd.dies[0].yield, std::pow(base.dies[0].yield, 2.0)));
  EXPECT_TRUE(bits_equal(pd.dies[1].yield, std::pow(base.dies[1].yield, 2.0)));
  // ...and coverage/NRE roles stay put.
  EXPECT_TRUE(bits_equal(pd.dies[0].kgd_escape, base.dies[0].kgd_escape));
  EXPECT_TRUE(bits_equal(pd.dies[0].nre, base.dies[0].nre));
  EXPECT_TRUE(bits_equal(pd.dies[1].nre, base.dies[1].nre));
}

// pow(yield, fault_scale) is only corner math for a non-negative finite
// exponent: a negative fault_scale must be rejected by name before any
// walk sees it, naming the build-up it was aimed at.
TEST(MultiDie, NegativeFaultScaleRejectedByName) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, paper_kit_selection());
  const core::AssessmentPipeline pipeline(bom, buildups, core::TechKits{});
  const double volume = buildups[0].production.volume;

  for (const core::ProcessCorner corner :
       {core::ProcessCorner{-0.5, 1.0},
        core::ProcessCorner{std::nan(""), 1.0},
        core::ProcessCorner{1.0, -2.0}}) {
    try {
      fleet_scenario_points(pipeline, {corner}, {volume}, core::FomWeights{});
      ADD_FAILURE() << "corner {" << corner.fault_scale << ", " << corner.cost_scale
                    << "} was accepted";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fleet corner"), std::string::npos) << what;
      EXPECT_NE(what.find(buildups[0].name), std::string::npos) << what;
      const char* field = corner.cost_scale < 0.0 ? "cost_scale" : "fault_scale";
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
  }
}

// sweep_kits carries the partitioning search: requesting blocks runs
// partition_sweep against each kit's best own build-up (Bell(3) = 5
// candidates for three blocks) and the result is thread-invariant.
TEST(MultiDie, SweepKitsExposesPartitionSearch) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  KitSweepOptions options;
  options.reference = kPcbFr4Kit;
  options.threads = 1;
  options.partition_blocks = {
      {"rf", 18.0, 30000.0}, {"corr", 32.0, 45000.0}, {"pmic", 9.0, 12000.0}};

  const KitFleetSummary fleet =
      sweep_kits(registry, {kPcbFr4Kit, kSiInterposerKit}, bom, options);
  const core::PartitionSweepResult& sweep = fleet.kits[1].partition;
  EXPECT_TRUE(sweep.exhaustive);
  ASSERT_EQ(sweep.candidates.size(), 5u);  // Bell(3)
  ASSERT_LT(sweep.best, sweep.candidates.size());

  options.threads = 8;
  const KitFleetSummary again =
      sweep_kits(registry, {kPcbFr4Kit, kSiInterposerKit}, bom, options);
  const core::PartitionSweepResult& sweep8 = again.kits[1].partition;
  ASSERT_EQ(sweep8.candidates.size(), sweep.candidates.size());
  EXPECT_EQ(sweep8.best, sweep.best);
  for (std::size_t i = 0; i < sweep.candidates.size(); ++i) {
    EXPECT_EQ(sweep8.candidates[i].assignment, sweep.candidates[i].assignment);
    expect_summary_bits(sweep8.candidates[i].summary, sweep.candidates[i].summary,
                        "fleet partition candidate");
  }

  // No blocks requested -> no search ran.
  KitSweepOptions none;
  none.reference = kPcbFr4Kit;
  none.threads = 1;
  const KitFleetSummary bare =
      sweep_kits(registry, {kPcbFr4Kit, kSiInterposerKit}, bom, none);
  EXPECT_TRUE(bare.kits[1].partition.candidates.empty());
}

}  // namespace
}  // namespace ipass::kits
