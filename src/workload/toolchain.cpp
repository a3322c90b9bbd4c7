#include "workload/toolchain.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

namespace toolchains {

Toolchain reference() { return {"reference (GCC -O3)", 1.0, 0.0, 1.0}; }

Toolchain vendor_tuned() {
  return {"vendor tuned (CCE + libsci)", 0.90, 0.06, 1.10};
}

Toolchain portable_o2() { return {"portable -O2", 1.06, -0.03, 0.96}; }

Toolchain unoptimised() { return {"unoptimised -O0", 1.60, -0.10, 0.85}; }

std::vector<Toolchain> all() {
  return {reference(), vendor_tuned(), portable_o2(), unoptimised()};
}

}  // namespace toolchains

namespace {

/// Re-derive an ApplicationSpec for a toolchain variant.  The base spec's
/// calibrated dynamic profile is recovered, the core component scaled, and
/// the (loaded power, power ratio) pair recomputed so ApplicationModel's
/// constructor re-calibrates to an identical profile.
ApplicationSpec variant_spec(const ApplicationModel& base,
                             const Toolchain& tc) {
  require(tc.runtime_factor > 0.0,
          "Toolchain: runtime_factor must be positive");
  require(tc.core_power_factor > 0.0,
          "Toolchain: core_power_factor must be positive");

  ApplicationSpec spec = base.spec();
  spec.name = base.name() + " [" + tc.name + "]";
  spec.beta = std::clamp(spec.beta + tc.beta_shift, 0.0,
                         1.0 - spec.comm_fraction);

  const NodePowerParams& np = base.node_params();
  DynamicPowerProfile profile = base.profile();
  profile.core_w *= tc.core_power_factor;

  const Power loaded = np.idle + profile.uncore_w + profile.core_w;
  const double phi2 =
      dvfs_factor(np.cpu, Frequency::ghz(2.0), spec.boost);
  const Power at_2ghz = np.idle + profile.uncore_w + profile.core_w * phi2;
  spec.loaded_node_w = loaded;
  spec.power_ratio_2ghz = at_2ghz / loaded;
  return spec;
}

}  // namespace

ToolchainedApplication::ToolchainedApplication(const ApplicationModel& base,
                                               Toolchain toolchain)
    : toolchain_(std::move(toolchain)),
      model_(variant_spec(base, toolchain_), base.node_params()) {}

Duration ToolchainedApplication::runtime(Duration base_ref_runtime,
                                         DeterminismMode mode,
                                         const PState& pstate) const {
  return model_.runtime(base_ref_runtime * toolchain_.runtime_factor, mode,
                        pstate);
}

Energy ToolchainedApplication::energy_to_solution(
    std::size_t nodes, Duration base_ref_runtime, DeterminismMode mode,
    const PState& pstate) const {
  return model_.job_energy(nodes,
                           base_ref_runtime * toolchain_.runtime_factor,
                           mode, pstate);
}

std::vector<ToolchainFrequencyPoint> toolchain_frequency_study(
    const ApplicationModel& base, DeterminismMode mode) {
  // Reference cell: the base build at the turbo default.
  const Duration unit = Duration::hours(1.0);
  const Energy ref_energy =
      base.job_energy(1, unit, mode, pstates::kHighTurbo);
  const Duration ref_runtime = base.runtime(unit, mode, pstates::kHighTurbo);

  std::vector<ToolchainFrequencyPoint> out;
  for (const Toolchain& tc : toolchains::all()) {
    const ToolchainedApplication app(base, tc);
    for (const PState& ps :
         {pstates::kLow, pstates::kMid, pstates::kHighTurbo}) {
      ToolchainFrequencyPoint p;
      p.toolchain = tc.name;
      p.pstate = ps;
      p.runtime_ratio = app.runtime(unit, mode, ps) / ref_runtime;
      p.energy_ratio = app.energy_to_solution(1, unit, mode, ps) / ref_energy;
      p.node_power_w = app.model().node_draw(mode, ps);
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace hpcem
