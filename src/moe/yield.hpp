// Yield models for production steps.
//
// Table 2 of the paper quotes fixed per-step yields; the library also
// provides per-joint yields (212 bond wires at 99.99% each) and the three
// classical area-defect-density models (Poisson, Murphy, Seeds) so the
// substrate yield can be tied to the substrate area in ablation studies.
#pragma once

#include <variant>

namespace ipass::moe {

// Fixed probability that the step leaves the unit fault-free.
struct FixedYield {
  double value = 1.0;
};

// Independent joints (bond wires, solder joints): yield = y^joints.
struct PerJointYield {
  double per_joint = 1.0;
  int joints = 1;
};

// Area-driven defect models, yield as a function of defect density D0
// [defects/cm^2] and area A [cm^2].
enum class DefectModel {
  Poisson,  // y = exp(-A D0)
  Murphy,   // y = ((1 - exp(-A D0)) / (A D0))^2
  Seeds,    // y = 1 / (1 + A D0)
};

struct AreaYield {
  DefectModel model = DefectModel::Poisson;
  double defects_per_cm2 = 0.0;
  double area_cm2 = 0.0;
};

using YieldSpec = std::variant<FixedYield, PerJointYield, AreaYield>;

// Field-wise equality (so YieldSpec compares by alternative and fields).
inline bool operator==(const FixedYield& a, const FixedYield& b) { return a.value == b.value; }
inline bool operator==(const PerJointYield& a, const PerJointYield& b) {
  return a.per_joint == b.per_joint && a.joints == b.joints;
}
inline bool operator==(const AreaYield& a, const AreaYield& b) {
  return a.model == b.model && a.defects_per_cm2 == b.defects_per_cm2 &&
         a.area_cm2 == b.area_cm2;
}

// Evaluate the yield (probability of a fault-free outcome) of a spec.
double yield_value(const YieldSpec& spec);

// Expected number of Poisson faults injected by a step of the given yield:
// lambda = -ln(y).  This is the bookkeeping the analytic evaluator and the
// Monte-Carlo engine share, so the two agree in expectation by
// construction.
double fault_intensity(const YieldSpec& spec);

// Solve an AreaYield model for the defect density that produces a target
// yield at a given area (used to re-anchor ablations at Table-2 values).
double defect_density_for_yield(DefectModel model, double target_yield, double area_cm2);

}  // namespace ipass::moe
