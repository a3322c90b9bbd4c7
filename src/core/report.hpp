// Report rendering: the paper's tables and figures as terminal text.
//
// Every reproduction harness in bench/ formats its output through these
// functions so EXPERIMENTS.md, the examples and the benches agree on
// layout.  Rows carry the paper's published values next to the model's, so
// the comparison is visible without a copy of the paper at hand.
#pragma once

#include <string>
#include <vector>

#include "core/assembly.hpp"
#include "core/efficiency.hpp"
#include "core/emissions.hpp"
#include "core/facility.hpp"
#include "power/facility_power.hpp"

namespace hpcem {

/// Table 1: hardware summary.
[[nodiscard]] std::string render_hardware_summary(const Facility& facility);

/// Table 2: per-component idle/loaded power and shares, with the paper's
/// published values alongside.
[[nodiscard]] std::string render_component_table(
    const std::vector<ComponentPowerRow>& rows);

/// Tables 3/4: benchmark comparisons, model vs paper.
[[nodiscard]] std::string render_benchmark_table(
    const std::vector<BenchmarkComparison>& rows, const std::string& title);

/// Figures 1-3: ASCII cabinet-power timeline with mean reference lines and
/// month tick labels, plus the recovered change point.
[[nodiscard]] std::string render_timeline(const TimelineResult& result,
                                          const std::string& title);

/// §2: emissions scenario sweep table.
[[nodiscard]] std::string render_emissions_sweep(
    const std::vector<EmissionsScenario>& rows);

/// §5: conclusions summary, model vs paper headline numbers.
[[nodiscard]] std::string render_conclusions(const Conclusions& c);

/// Frequency sweep table for one application (examples/advisor).
[[nodiscard]] std::string render_frequency_sweep(
    const std::string& app, const std::vector<FrequencyPoint>& sweep);

}  // namespace hpcem
