#include "core/efficiency.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

EfficiencyAnalyzer::EfficiencyAnalyzer(const AppCatalog& catalog)
    : catalog_(&catalog) {}

BenchmarkComparison EfficiencyAnalyzer::compare(
    const std::string& app_name, std::size_t nodes, OperatingPoint reference,
    OperatingPoint candidate, std::optional<int> paper_table) const {
  const ApplicationModel& app = catalog_->at(app_name);
  BenchmarkComparison row;
  row.app = app_name;
  row.nodes = nodes;
  row.perf_ratio = app.perf_ratio(candidate.mode, candidate.pstate,
                                  reference.mode, reference.pstate);
  row.energy_ratio = app.energy_ratio(candidate.mode, candidate.pstate,
                                      reference.mode, reference.pstate);
  if (paper_table) row.paper = catalog_->reference(app_name, *paper_table);
  return row;
}

std::vector<BenchmarkComparison> EfficiencyAnalyzer::table3() const {
  const OperatingPoint reference{DeterminismMode::kPowerDeterminism,
                                 pstates::kHighTurbo};
  const OperatingPoint candidate{DeterminismMode::kPerformanceDeterminism,
                                 pstates::kHighTurbo};
  std::vector<BenchmarkComparison> rows;
  for (const auto* app : catalog_->benchmarks_for_table(3)) {
    const auto ref = catalog_->reference(app->name(), 3);
    HPCEM_ASSERT(ref.has_value(), "table-3 benchmark without reference");
    rows.push_back(
        compare(app->name(), ref->nodes, reference, candidate, 3));
  }
  return rows;
}

std::vector<BenchmarkComparison> EfficiencyAnalyzer::table4() const {
  const OperatingPoint reference{DeterminismMode::kPerformanceDeterminism,
                                 pstates::kHighTurbo};
  const OperatingPoint candidate{DeterminismMode::kPerformanceDeterminism,
                                 pstates::kMid};
  std::vector<BenchmarkComparison> rows;
  for (const auto* app : catalog_->benchmarks_for_table(4)) {
    const auto ref = catalog_->reference(app->name(), 4);
    HPCEM_ASSERT(ref.has_value(), "table-4 benchmark without reference");
    rows.push_back(
        compare(app->name(), ref->nodes, reference, candidate, 4));
  }
  return rows;
}

std::vector<FrequencyPoint> EfficiencyAnalyzer::frequency_sweep(
    const std::string& app_name, DeterminismMode mode) const {
  const ApplicationModel& app = catalog_->at(app_name);
  const PState reference = pstates::kHighTurbo;
  const PState candidates[] = {pstates::kLow, pstates::kMid,
                               pstates::kHighNoTurbo, pstates::kHighTurbo};
  std::vector<FrequencyPoint> out;
  for (const PState& ps : candidates) {
    FrequencyPoint p;
    p.pstate = ps;
    p.perf_ratio = app.perf_ratio(mode, ps, mode, reference);
    p.energy_ratio = app.energy_ratio(mode, ps, mode, reference);
    p.node_power_w = app.node_draw(mode, ps);
    // Work per kWh scales as 1/energy-to-solution.
    p.output_per_kwh_ratio = 1.0 / p.energy_ratio;
    out.push_back(p);
  }
  return out;
}

PState EfficiencyAnalyzer::recommend_pstate(
    const std::string& app_name, std::optional<double> max_slowdown,
    DeterminismMode mode) const {
  const auto sweep = frequency_sweep(app_name, mode);
  const FrequencyPoint* best = nullptr;
  for (const auto& p : sweep) {
    if (max_slowdown && (1.0 / p.perf_ratio - 1.0) > *max_slowdown) continue;
    if (best == nullptr || p.energy_ratio < best->energy_ratio) best = &p;
  }
  require_state(best != nullptr,
                "recommend_pstate: no P-state satisfies the slowdown cap");
  return best->pstate;
}

}  // namespace hpcem
