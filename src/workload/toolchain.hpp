// Compiler/toolchain variants and their energy-efficiency interaction with
// CPU frequency.
//
// The paper's conclusions name this as future work: "investigating the
// impact of compiler and library choices on the energy efficiency of
// application benchmarks at different CPU frequencies".  The model: a
// toolchain rescales an application's runtime (better codegen), shifts its
// clock-sensitive fraction beta (vectorised code retires more work per
// cycle, so a larger share of runtime scales with the clock), and scales
// the core dynamic power (denser SIMD draws more).  The interesting
// emergent effect this reproduces: a faster, more vectorised build both
// saves energy outright *and* changes the frequency response — its 2.0 GHz
// energy ratio differs from the reference build's, so the best per-app
// frequency choice is toolchain-dependent.
#pragma once

#include <string>
#include <vector>

#include "workload/app_model.hpp"

namespace hpcem {

/// One compiler/library configuration.
struct Toolchain {
  std::string name;
  /// Runtime multiplier at reference conditions (<1 = faster build).
  double runtime_factor = 1.0;
  /// Additive shift of the application's clock-sensitive fraction.
  double beta_shift = 0.0;
  /// Multiplier on the core dynamic power component.
  double core_power_factor = 1.0;
};

/// Representative toolchains for the modelled system.  The reference is
/// the build the catalogue was calibrated against.
namespace toolchains {
/// The calibration reference (identity).
[[nodiscard]] Toolchain reference();
/// Vendor compiler with tuned math libraries: faster, more vectorised,
/// hotter cores.
[[nodiscard]] Toolchain vendor_tuned();
/// A portable -O2 build: a little slower, less vectorised.
[[nodiscard]] Toolchain portable_o2();
/// An unoptimised/debug-ish build: slow, clock-insensitive, cool.
[[nodiscard]] Toolchain unoptimised();
/// All of the above in display order.
[[nodiscard]] std::vector<Toolchain> all();
}  // namespace toolchains

/// An application rebuilt with a toolchain: wraps a re-derived
/// ApplicationModel plus the absolute runtime scale vs the reference
/// build (the ApplicationModel alone only knows *relative* time factors).
class ToolchainedApplication {
 public:
  /// Derive the variant from a calibrated base model.  Throws
  /// InvalidArgument if the shifted parameters leave the feasible space.
  ToolchainedApplication(const ApplicationModel& base, Toolchain toolchain);

  [[nodiscard]] const ApplicationModel& model() const { return model_; }
  [[nodiscard]] const Toolchain& toolchain() const { return toolchain_; }

  /// Wall-clock runtime for work that takes `base_ref_runtime` on the
  /// reference build at reference conditions.
  [[nodiscard]] Duration runtime(Duration base_ref_runtime,
                                 DeterminismMode mode,
                                 const PState& pstate) const;

  /// Compute-node energy-to-solution for the same work definition.
  [[nodiscard]] Energy energy_to_solution(std::size_t nodes,
                                          Duration base_ref_runtime,
                                          DeterminismMode mode,
                                          const PState& pstate) const;

 private:
  Toolchain toolchain_;
  ApplicationModel model_;
};

/// One cell of the toolchain x frequency energy matrix.
struct ToolchainFrequencyPoint {
  std::string toolchain;
  PState pstate;
  double runtime_ratio = 0.0;  ///< vs reference build at turbo
  double energy_ratio = 0.0;   ///< vs reference build at turbo
  Power node_power_w;
};

/// Sweep toolchains x P-states for one application (the future-work study).
[[nodiscard]] std::vector<ToolchainFrequencyPoint>
toolchain_frequency_study(const ApplicationModel& base,
                          DeterminismMode mode =
                              DeterminismMode::kPerformanceDeterminism);

}  // namespace hpcem
