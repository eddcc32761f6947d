#include "core/export.hpp"

#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"

namespace ipass::core {

std::string csv_escape(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

namespace {

// Every writer below appends into one buffer through the shared %.17g
// primitives (common/jsonfmt.hpp).  Like append_json_field, `count` emits
// `prefix` (separator and key) and then the value.
void count(std::string& out, const char* prefix, std::size_t v) {
  out += prefix;
  out += std::to_string(v);
}

void append_ledger(std::string& out, const moe::Ledger& ledger) {
  out += "{";
  for (int i = 0; i < moe::kCostCategoryCount; ++i) {
    if (i) out += ", ";
    out += '"';
    out += moe::cost_category_name(static_cast<moe::CostCategory>(i));
    append_json_field(out, "\": ", ledger.v[i]);
  }
  out += "}";
}

void append_filter(std::string& out, const FilterPerformance& fp) {
  out += "        {\"name\": \"";
  append_json_escaped(out, fp.name);
  out += "\", \"style\": \"";
  out += filter_style_name(fp.style);
  append_json_field(out, "\", \"il_spec_db\": ", fp.il_spec_db);
  append_json_field(out, ", \"il_calc_db\": ", fp.il_calc_db);
  append_json_field(out, ", \"rejection_spec_db\": ", fp.rejection_spec_db);
  append_json_field(out, ", \"rejection_calc_db\": ", fp.rejection_calc_db);
  append_json_field(out, ", \"loss_score\": ", fp.loss_score);
  append_json_field(out, ", \"rejection_score\": ", fp.rejection_score);
  append_json_field(out, ", \"score\": ", fp.score);
  out += ", \"meets_spec\": ";
  out += fp.meets_spec ? "true}" : "false}";
}

void append_assessment(std::string& out, const BuildUpAssessment& a) {
  out += "    {\n      \"index\": ";
  out += std::to_string(a.buildup.index);
  out += ",\n      \"name\": \"";
  append_json_escaped(out, a.buildup.name);
  append_json_field(out, "\",\n      \"performance\": {\"score\": ", a.performance.score);
  out += ", \"filters\": [\n";
  for (std::size_t f = 0; f < a.performance.filters.size(); ++f) {
    append_filter(out, a.performance.filters[f]);
    out += f + 1 < a.performance.filters.size() ? ",\n" : "\n";
  }
  append_json_field(out, "      ]},\n      \"area\": {\"component_area_mm2\": ",
                    a.area.component_area_mm2);
  append_json_field(out, ", \"smd_area_mm2\": ", a.area.smd_area_mm2);
  append_json_field(out, ", \"substrate_side_mm\": ", a.area.substrate.side_mm);
  append_json_field(out, ", \"substrate_area_mm2\": ", a.area.substrate.area_mm2);
  append_json_field(out, ", \"module_side_mm\": ", a.area.module.side_mm);
  append_json_field(out, ", \"module_area_mm2\": ", a.area.module.area_mm2);
  const moe::CostReport& c = a.cost;
  append_json_field(out, "},\n      \"cost\": {\"volume\": ", c.volume);
  append_json_field(out, ", \"shipped_fraction\": ", c.shipped_fraction);
  append_json_field(out, ", \"shipped_units\": ", c.shipped_units);
  append_json_field(out, ", \"good_fraction\": ", c.good_fraction);
  append_json_field(out, ", \"escaped_defect_rate\": ", c.escaped_defect_rate);
  append_json_field(out, ", \"direct_cost\": ", c.direct_cost);
  append_json_field(out, ", \"yield_loss_per_shipped\": ", c.yield_loss_per_shipped);
  append_json_field(out, ", \"nre_per_shipped\": ", c.nre_per_shipped);
  append_json_field(out, ", \"final_cost_per_shipped\": ", c.final_cost_per_shipped);
  append_json_field(out, ", \"total_spend_per_started\": ", c.total_spend_per_started);
  out += ",\n      \"direct_ledger\": ";
  append_ledger(out, c.direct_ledger);
  out += ",\n      \"spend_ledger\": ";
  append_ledger(out, c.spend_ledger);
  append_json_field(out, "},\n      \"area_rel\": ", a.area_rel);
  append_json_field(out, ",\n      \"cost_rel\": ", a.cost_rel);
  append_json_field(out, ",\n      \"fom\": ", a.fom);
  out += "\n    }";
}

}  // namespace

std::string decision_report_json(const DecisionReport& report) {
  std::string out;
  count(out, "{\n  \"reference\": ", report.reference);
  count(out, ",\n  \"winner\": ", report.winner);
  append_json_field(out, ",\n  \"weights\": {\"performance\": ",
                    report.weights.performance);
  append_json_field(out, ", \"size\": ", report.weights.size);
  append_json_field(out, ", \"cost\": ", report.weights.cost);
  out += "},\n  \"assessments\": [\n";
  for (std::size_t i = 0; i < report.assessments.size(); ++i) {
    append_assessment(out, report.assessments[i]);
    out += i + 1 < report.assessments.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string decision_report_csv(const DecisionReport& report) {
  std::string out =
      "index,name,performance,module_area_mm2,area_rel,final_cost_per_shipped,"
      "cost_rel,direct_cost,chip_cost_direct,yield_loss_per_shipped,nre_per_shipped,"
      "shipped_fraction,fom,winner\n";
  for (std::size_t i = 0; i < report.assessments.size(); ++i) {
    const BuildUpAssessment& a = report.assessments[i];
    out += strf("%d,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n",
                a.buildup.index, csv_escape(a.buildup.name).c_str(),
                a.performance.score, a.area.module_area_mm2(), a.area_rel,
                a.cost.final_cost_per_shipped, a.cost_rel, a.cost.direct_cost,
                a.cost.chip_cost_direct(), a.cost.yield_loss_per_shipped,
                a.cost.nre_per_shipped, a.cost.shipped_fraction, a.fom,
                i == report.winner ? 1 : 0);
  }
  return out;
}

namespace {

void append_scenario_cell(std::string& out, const ScenarioCell& cell) {
  count(out, "{\"cell\": ", cell.cell);
  count(out, ", \"buildup\": ", cell.buildup);
  count(out, ", \"corner\": ", cell.corner);
  count(out, ", \"volume\": ", cell.volume);
  append_json_field(out, ", \"final_cost_per_shipped\": ", cell.final_cost_per_shipped);
  append_json_field(out, ", \"shipped_fraction\": ", cell.shipped_fraction);
  out += "}";
}

}  // namespace

std::string scenario_grid_summary_json(const ScenarioGridSummary& summary) {
  std::string out;
  count(out, "{\n  \"cells\": ", summary.cells);
  append_json_field(out, ",\n  \"cost_mean\": ", summary.cost_mean);
  append_json_field(out, ",\n  \"cost_stddev\": ", summary.cost_stddev);
  out += ",\n  \"best\": ";
  append_scenario_cell(out, summary.best);
  out += ",\n  \"worst\": ";
  append_scenario_cell(out, summary.worst);
  out += ",\n  \"wins_per_buildup\": [";
  for (std::size_t b = 0; b < summary.wins_per_buildup.size(); ++b) {
    count(out, b ? ", " : "", summary.wins_per_buildup[b]);
  }
  out += "]\n}\n";
  return out;
}

std::string batch_result_json(const BatchAssessmentResult& result) {
  std::string out;
  count(out, "{\n  \"points\": ", result.points);
  count(out, ",\n  \"buildups\": ", result.buildups);
  out += ",\n  \"summaries\": [\n";
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const BuildUpSummary& s = result.summaries[i];
    append_json_field(out, "    {\"performance\": ", s.performance);
    append_json_field(out, ", \"module_area_mm2\": ", s.module_area_mm2);
    append_json_field(out, ", \"area_rel\": ", s.area_rel);
    append_json_field(out, ", \"shipped_fraction\": ", s.shipped_fraction);
    append_json_field(out, ", \"direct_cost\": ", s.direct_cost);
    append_json_field(out, ", \"chip_cost_direct\": ", s.chip_cost_direct);
    append_json_field(out, ", \"yield_loss_per_shipped\": ", s.yield_loss_per_shipped);
    append_json_field(out, ", \"nre_per_shipped\": ", s.nre_per_shipped);
    append_json_field(out, ", \"final_cost_per_shipped\": ", s.final_cost_per_shipped);
    append_json_field(out, ", \"cost_rel\": ", s.cost_rel);
    append_json_field(out, ", \"fom\": ", s.fom);
    out += i + 1 < result.summaries.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"winners\": [";
  for (std::size_t p = 0; p < result.winners.size(); ++p) {
    count(out, p ? ", " : "", result.winners[p]);
  }
  out += "]\n}\n";
  return out;
}

std::string tolerance_result_json(const rf::ToleranceResult& result) {
  std::string out;
  count(out, "{\"samples\": ", result.samples);
  count(out, ", \"passing\": ", result.passing);
  append_json_field(out, ", \"parametric_yield\": ", result.parametric_yield);
  append_json_field(out, ", \"ci95_half_width\": ", result.ci95_half_width);
  append_json_field(out, ", \"metric_mean\": ", result.metric_mean);
  append_json_field(out, ", \"metric_stddev\": ", result.metric_stddev);
  append_json_field(out, ", \"metric_min\": ", result.metric_min);
  append_json_field(out, ", \"metric_max\": ", result.metric_max);
  out += "}";
  return out;
}

std::string performance_csv(const DecisionReport& report) {
  std::string out =
      "buildup_index,buildup_name,filter,style,il_spec_db,il_calc_db,"
      "rejection_spec_db,rejection_calc_db,score,meets_spec\n";
  for (const BuildUpAssessment& a : report.assessments) {
    for (const FilterPerformance& f : a.performance.filters) {
      out += strf("%d,%s,%s,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n", a.buildup.index,
                  csv_escape(a.buildup.name).c_str(), csv_escape(f.name).c_str(),
                  filter_style_name(f.style), f.il_spec_db, f.il_calc_db,
                  f.rejection_spec_db, f.rejection_calc_db, f.score,
                  f.meets_spec ? 1 : 0);
    }
  }
  return out;
}

std::string sensitivity_csv(const SensitivityReport& report) {
  std::string out = "input,rel_step,base_cost,perturbed_cost,elasticity\n";
  for (const SensitivityRow& r : report.rows) {
    out += strf("%s,%.6g,%.6g,%.6g,%.6g\n", csv_escape(r.input).c_str(),
                report.rel_step, r.base_cost, r.perturbed_cost, r.elasticity);
  }
  return out;
}

}  // namespace ipass::core
