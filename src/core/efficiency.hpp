// Application efficiency analysis: the harness behind Tables 3 and 4.
//
// For a benchmark application and two operating points (policy A as the
// reference, policy B as the candidate) the analyzer produces the paper's
// two columns — the performance ratio perf(B)/perf(A) and compute-node
// energy ratio energy(B)/energy(A) — plus throughput-per-kWh metrics, and
// can sweep the available P-states to recommend a per-application setting
// (§4.2: "users were strongly encouraged to benchmark the effect of CPU
// frequency ... and choose an appropriate setting").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workload/catalog.hpp"
#include "workload/policy.hpp"

namespace hpcem {

/// One benchmark comparison row (the layout of Tables 3/4).
struct BenchmarkComparison {
  std::string app;
  std::size_t nodes = 0;
  double perf_ratio = 0.0;    ///< perf(candidate) / perf(reference)
  double energy_ratio = 0.0;  ///< node energy(candidate) / (reference)
  /// Published values when the catalogue carries them for this table.
  std::optional<PaperReference> paper;
};

/// One row of a frequency sweep for a single application.
struct FrequencyPoint {
  PState pstate;
  double perf_ratio = 0.0;      ///< vs turbo reference
  double energy_ratio = 0.0;    ///< vs turbo reference
  Power node_power_w;
  /// Work per kWh relative to the turbo reference (>1 = more efficient).
  double output_per_kwh_ratio = 0.0;
};

/// Operating point: BIOS mode + P-state (what a benchmark runs under).
struct OperatingPoint {
  DeterminismMode mode = DeterminismMode::kPowerDeterminism;
  PState pstate = pstates::kHighTurbo;
};

/// Efficiency analysis over a catalogue.
class EfficiencyAnalyzer {
 public:
  explicit EfficiencyAnalyzer(const AppCatalog& catalog);

  /// Compare one application between two operating points.
  [[nodiscard]] BenchmarkComparison compare(
      const std::string& app, std::size_t nodes, OperatingPoint reference,
      OperatingPoint candidate, std::optional<int> paper_table) const;

  /// Table 3 reproduction: every catalogue entry with Table-3 data,
  /// power determinism (reference) vs performance determinism (candidate),
  /// both at 2.25 GHz + turbo.
  [[nodiscard]] std::vector<BenchmarkComparison> table3() const;

  /// Table 4 reproduction: every catalogue entry with Table-4 data,
  /// 2.25 GHz + turbo (reference) vs 2.0 GHz (candidate), both under
  /// performance determinism.
  [[nodiscard]] std::vector<BenchmarkComparison> table4() const;

  /// Sweep the machine's P-states for one application.
  [[nodiscard]] std::vector<FrequencyPoint> frequency_sweep(
      const std::string& app,
      DeterminismMode mode = DeterminismMode::kPerformanceDeterminism) const;

  /// The P-state minimising energy-to-solution for an application, with an
  /// optional cap on acceptable slowdown vs turbo (nullopt = no cap).
  [[nodiscard]] PState recommend_pstate(
      const std::string& app,
      std::optional<double> max_slowdown = std::nullopt,
      DeterminismMode mode = DeterminismMode::kPerformanceDeterminism) const;

 private:
  const AppCatalog* catalog_;
};

}  // namespace hpcem
