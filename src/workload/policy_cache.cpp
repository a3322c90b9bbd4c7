#include "workload/policy_cache.hpp"

#include "util/error.hpp"

namespace hpcem {

namespace {

constexpr std::array<PState, 4> kSlotPStates = {
    pstates::kLow, pstates::kMid, pstates::kHighTurbo, pstates::kHighNoTurbo};

}  // namespace

PolicyFactorCache::PolicyFactorCache(const AppCatalog& catalog)
    : catalog_(&catalog) {}

std::size_t PolicyFactorCache::slot_of(const PState& pstate) {
  for (std::size_t i = 0; i < kSlotPStates.size(); ++i) {
    if (kSlotPStates[i] == pstate) return i;
  }
  // Same guard (and message) the uncached path hits first, in
  // ApplicationModel::time_factor -> effective_frequency.
  require(false, "effective_frequency: invalid P-state");
  return 0;
}

void PolicyFactorCache::set_policy(const OperatingPolicy& policy) {
  policy_ = policy;
  ++epoch_;

  const auto apps = catalog_->apps();
  by_app_.resize(apps.size());
  default_slot_.resize(apps.size());
  const JobSpec probe;  // no user pin: policy resolution applies
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const ApplicationModel& app = apps[a];
    for (std::size_t s = 0; s < kPStateSlots; ++s) {
      JobFactors& f = by_app_[a][s];
      f.pstate = kSlotPStates[s];
      f.time_factor = app.time_factor(policy_.bios_mode, f.pstate);
      f.draw = app.node_draw_terms(policy_.bios_mode, f.pstate);
    }
    default_slot_[a] = slot_of(policy_.resolve_pstate(app, probe));
  }

  // Identical accumulation (weights, order, division) to the uncached
  // demand_scale: mix_average over the cached time factors.
  const double mean_factor =
      catalog_->mix_average([&](const ApplicationModel& app) {
        const std::size_t a =
            static_cast<std::size_t>(&app - apps.data());
        return by_app_[a][default_slot_[a]].time_factor;
      });
  HPCEM_ASSERT(mean_factor > 0.0, "mean time factor must be positive");
  demand_scale_ = 1.0 / mean_factor;
}

const PolicyFactorCache::JobFactors& PolicyFactorCache::factors(
    const JobSpec& job) const {
  require_state(epoch_ > 0,
                "PolicyFactorCache::factors: set_policy not called");
  const auto app_index = static_cast<std::size_t>(job.app);
  require(app_index < by_app_.size(),
          "PolicyFactorCache::factors: app id out of range");
  const std::size_t slot = job.user_pstate ? slot_of(*job.user_pstate)
                                           : default_slot_[app_index];
  return by_app_[app_index][slot];
}

}  // namespace hpcem
