// Application performance & power model.
//
// Performance: a two-term roofline abstraction.  A fraction `beta` of an
// application's runtime scales inversely with the core clock (instruction
// throughput bound); the remainder is clock-insensitive (DRAM bandwidth,
// network, I/O).  Runtime at effective frequency f relative to the
// reference boost clock f_ref is
//
//     T(f) = T_ref * [ (1 - beta) + beta * f_ref / f ].
//
// This single parameter reproduces the paper's observation that the 2.25->
// 2.0 GHz change costs 5% (memory-bound VASP CdTe) to 26% (compute-bound
// LAMMPS) because applications actually boost to ~2.8 GHz, so the change is
// really 2.8 -> 2.0 (§4.2).  `beta` is recovered from Table 4's published
// performance ratios by inverting the formula.
//
// Power: the node draw while running the application comes from
// power/node_model.hpp with a per-application dynamic profile calibrated
// from the published energy ratios (see calibration notes there), plus a
// per-application power-determinism uplift calibrated from Table 3.
#pragma once

#include <string>

#include "power/node_model.hpp"
#include "power/pstate.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Broad research areas used for the workload mix (paper §1.1 lists the
/// major ARCHER2 communities).
enum class ScienceArea {
  kMaterials,
  kClimateOcean,
  kBiomolecular,
  kEngineering,
  kMineralPhysics,
  kSeismology,
  kPlasma,
};

[[nodiscard]] std::string to_string(ScienceArea a);

/// Static description of one application (or benchmark case).
struct ApplicationSpec {
  std::string name;
  ScienceArea area = ScienceArea::kMaterials;
  /// Clock-sensitive fraction of runtime, in [0, 1].
  double beta = 0.3;
  /// Loaded whole-node draw at the boost clock under performance
  /// determinism, watts.
  Power loaded_node_w = Power::watts(470.0);
  /// Loaded node power ratio at 2.0 GHz vs boost (rho = P(2.0)/P(boost)).
  double power_ratio_2ghz = 0.78;
  /// Achieved all-core boost under 2.25 GHz + turbo, performance
  /// determinism.
  Frequency boost = Frequency::ghz(2.8);
  /// Fractional extra dynamic core power drawn under power determinism.
  double power_det_uplift = 0.25;
  /// Fraction of runtime spent in inter-node communication (a subset of
  /// the clock-insensitive part; used by the interconnect model).
  double comm_fraction = 0.15;
  /// Share of the machine's *node-hours* attributed to this application
  /// when generating the production mix (unnormalised weight; 0 for
  /// benchmark-only entries that never appear in the background mix).  The
  /// generator converts this into a per-job probability internally.
  double mix_weight = 0.0;
  /// Typical job geometry for the generator.
  double typical_nodes = 32.0;
  double typical_runtime_h = 6.0;
};

/// Runnable model: spec plus the calibrated dynamic power profile.
class ApplicationModel {
 public:
  /// Calibrates the dynamic power profile from the spec against the node
  /// parameters; throws InvalidArgument if the spec is infeasible.
  ApplicationModel(ApplicationSpec spec, const NodePowerParams& node_params);

  [[nodiscard]] const ApplicationSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const DynamicPowerProfile& profile() const { return profile_; }

  /// Effective core clock under a P-state/mode.
  [[nodiscard]] Frequency effective_frequency(DeterminismMode mode,
                                              const PState& pstate) const;

  /// Runtime multiplier relative to reference conditions (boost clock,
  /// performance determinism).  >= ~1 for any slower setting.
  [[nodiscard]] double time_factor(DeterminismMode mode,
                                   const PState& pstate) const;

  /// Runtime at the given settings for a job with reference runtime
  /// `ref_runtime` (measured at reference conditions).
  [[nodiscard]] Duration runtime(Duration ref_runtime, DeterminismMode mode,
                                 const PState& pstate) const;

  /// perf(b) / perf(a): how much faster/slower condition b is than a.
  [[nodiscard]] double perf_ratio(DeterminismMode mode_b, const PState& ps_b,
                                  DeterminismMode mode_a,
                                  const PState& ps_a) const;

  /// Fractional slowdown of `pstate`/`mode` vs reference conditions
  /// (0.26 means 26% slower).  Used by the per-application opt-out policy.
  [[nodiscard]] double expected_slowdown(DeterminismMode mode,
                                         const PState& pstate) const;

  /// Whole-node draw while running this application at full node load.
  [[nodiscard]] Power node_draw(DeterminismMode mode, const PState& pstate,
                                double silicon_factor = 1.0) const;

  /// Silicon-independent power terms for this application at full node
  /// load: `node_draw_terms(m, p).watts(s)` equals
  /// `node_draw(m, p, s).w()` bit-for-bit, but the DVFS state is hoisted
  /// so per-silicon evaluation is two multiply-adds (policy-epoch caches,
  /// fleet batching).
  [[nodiscard]] NodePowerTerms node_draw_terms(DeterminismMode mode,
                                               const PState& pstate) const;

  /// Compute-node energy of a whole job (nodes x node power x runtime).
  [[nodiscard]] Energy job_energy(std::size_t nodes, Duration ref_runtime,
                                  DeterminismMode mode,
                                  const PState& pstate) const;

  /// energy(b) / energy(a) for the same job under two settings.
  [[nodiscard]] double energy_ratio(DeterminismMode mode_b,
                                    const PState& ps_b,
                                    DeterminismMode mode_a,
                                    const PState& ps_a) const;

  [[nodiscard]] const NodePowerParams& node_params() const {
    return node_params_;
  }

 private:
  ApplicationSpec spec_;
  NodePowerParams node_params_;
  DynamicPowerProfile profile_;
};

/// Invert the roofline formula: clock-sensitive fraction from a published
/// performance ratio between 2.0 GHz and the boost clock.
[[nodiscard]] double beta_from_perf_ratio(double perf_ratio_2ghz,
                                          Frequency boost);

/// Calibrate the power-determinism uplift so that the model reproduces a
/// published energy ratio (performance- vs power-determinism, both at the
/// turbo P-state), as measured in the paper's Table 3.
[[nodiscard]] double calibrate_power_det_uplift(
    const ApplicationSpec& spec, const NodePowerParams& node_params,
    double target_energy_ratio);

}  // namespace hpcem
