#include "workload/app_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hpcem {

std::string to_string(ScienceArea a) {
  switch (a) {
    case ScienceArea::kMaterials:
      return "materials science";
    case ScienceArea::kClimateOcean:
      return "climate/ocean modelling";
    case ScienceArea::kBiomolecular:
      return "biomolecular modelling";
    case ScienceArea::kEngineering:
      return "engineering";
    case ScienceArea::kMineralPhysics:
      return "mineral physics";
    case ScienceArea::kSeismology:
      return "seismology";
    case ScienceArea::kPlasma:
      return "plasma physics";
  }
  return "unknown";
}

ApplicationModel::ApplicationModel(ApplicationSpec spec,
                                   const NodePowerParams& node_params)
    : spec_(std::move(spec)), node_params_(node_params) {
  require(spec_.beta >= 0.0 && spec_.beta <= 1.0,
          "ApplicationModel: beta must be in [0, 1] for ", spec_.name);
  require(spec_.comm_fraction >= 0.0 &&
              spec_.comm_fraction + spec_.beta <= 1.0,
          "ApplicationModel: comm_fraction must fit in the clock-insensitive "
          "part for ",
          spec_.name);
  require(spec_.power_det_uplift >= 0.0,
          "ApplicationModel: uplift must be non-negative for ", spec_.name);
  require(spec_.mix_weight >= 0.0,
          "ApplicationModel: mix_weight must be non-negative for ",
          spec_.name);
  profile_ = calibrate_dynamic_profile(
      node_params_, spec_.loaded_node_w, spec_.power_ratio_2ghz, spec_.boost);
}

Frequency ApplicationModel::effective_frequency(DeterminismMode mode,
                                                const PState& pstate) const {
  return ::hpcem::effective_frequency(node_params_.cpu, pstate, mode,
                                      spec_.boost);
}

double ApplicationModel::time_factor(DeterminismMode mode,
                                     const PState& pstate) const {
  const Frequency f = effective_frequency(mode, pstate);
  const double ratio = spec_.boost.to_ghz() / f.to_ghz();
  return (1.0 - spec_.beta) + spec_.beta * ratio;
}

Duration ApplicationModel::runtime(Duration ref_runtime, DeterminismMode mode,
                                   const PState& pstate) const {
  require(ref_runtime.sec() > 0.0,
          "ApplicationModel::runtime: reference runtime must be positive");
  return ref_runtime * time_factor(mode, pstate);
}

double ApplicationModel::perf_ratio(DeterminismMode mode_b,
                                    const PState& ps_b,
                                    DeterminismMode mode_a,
                                    const PState& ps_a) const {
  return time_factor(mode_a, ps_a) / time_factor(mode_b, ps_b);
}

double ApplicationModel::expected_slowdown(DeterminismMode mode,
                                           const PState& pstate) const {
  return time_factor(mode, pstate) - 1.0;
}

Power ApplicationModel::node_draw(DeterminismMode mode, const PState& pstate,
                                  double silicon_factor) const {
  NodeActivity act;
  act.load = 1.0;
  act.pstate = pstate;
  act.mode = mode;
  act.app_boost = spec_.boost;
  act.power_det_uplift = spec_.power_det_uplift;
  act.silicon_factor = silicon_factor;
  return node_power(node_params_, profile_, act);
}

NodePowerTerms ApplicationModel::node_draw_terms(DeterminismMode mode,
                                                 const PState& pstate) const {
  NodeActivity act;
  act.load = 1.0;
  act.pstate = pstate;
  act.mode = mode;
  act.app_boost = spec_.boost;
  act.power_det_uplift = spec_.power_det_uplift;
  return node_power_terms(node_params_, profile_, act);
}

Energy ApplicationModel::job_energy(std::size_t nodes, Duration ref_runtime,
                                    DeterminismMode mode,
                                    const PState& pstate) const {
  require(nodes > 0, "ApplicationModel::job_energy: nodes must be positive");
  const Power p = node_draw(mode, pstate) * static_cast<double>(nodes);
  return p * runtime(ref_runtime, mode, pstate);
}

double ApplicationModel::energy_ratio(DeterminismMode mode_b,
                                      const PState& ps_b,
                                      DeterminismMode mode_a,
                                      const PState& ps_a) const {
  const Duration ref = Duration::hours(1.0);
  const Energy eb = job_energy(1, ref, mode_b, ps_b);
  const Energy ea = job_energy(1, ref, mode_a, ps_a);
  return eb / ea;
}

double beta_from_perf_ratio(double perf_ratio_2ghz, Frequency boost) {
  require(perf_ratio_2ghz > 0.0 && perf_ratio_2ghz <= 1.0,
          "beta_from_perf_ratio: ratio must be in (0, 1]");
  const double speed_ratio = boost.to_ghz() / 2.0;
  require(speed_ratio > 1.0, "beta_from_perf_ratio: boost must be > 2 GHz");
  // 1/r = (1 - beta) + beta * speed_ratio  =>  beta = (1/r - 1)/(sr - 1).
  const double beta = (1.0 / perf_ratio_2ghz - 1.0) / (speed_ratio - 1.0);
  require(beta <= 1.0,
          "beta_from_perf_ratio: ratio implies beta > 1 (inconsistent with "
          "the boost clock)");
  return beta;
}

double calibrate_power_det_uplift(const ApplicationSpec& spec,
                                  const NodePowerParams& node_params,
                                  double target_energy_ratio) {
  require(target_energy_ratio > 0.0 && target_energy_ratio <= 1.0,
          "calibrate_power_det_uplift: target must be in (0, 1]");
  // Work at the turbo P-state.  E_ratio = (P_pd * T_pd) / (P_wd * T_wd)
  // where pd = performance determinism, wd = power determinism, and the
  // only unknown in P_wd is the uplift.
  const DynamicPowerProfile profile = calibrate_dynamic_profile(
      node_params, spec.loaded_node_w, spec.power_ratio_2ghz, spec.boost);

  const double s = node_params.idle.w();
  const double boost_factor = 1.0 + node_params.cpu.power_determinism_boost;
  const Frequency f_wd = Frequency::ghz(spec.boost.to_ghz() * boost_factor);
  const double phi_wd = dvfs_factor(node_params.cpu, f_wd, spec.boost);

  // Time ratio: power determinism runs slightly faster via the extra boost.
  const double t_pd = 1.0;  // reference conditions
  const double t_wd =
      (1.0 - spec.beta) + spec.beta / boost_factor;

  // phi = 1 at the boost reference.
  const double p_pd = spec.loaded_node_w.w();
  const double p_wd_needed = p_pd * t_pd / (target_energy_ratio * t_wd);

  const double core_at_wd = p_wd_needed - s - profile.uncore_w.w();
  require(profile.core_w > Power{},
          "calibrate_power_det_uplift: application has no core-clock "
          "dynamic power to uplift");
  const double one_plus_uplift = core_at_wd / (profile.core_w * phi_wd).w();
  require(one_plus_uplift >= 1.0,
          "calibrate_power_det_uplift: target energy ratio implies a "
          "negative uplift for ",
          spec.name);
  return one_plus_uplift - 1.0;
}

}  // namespace hpcem
