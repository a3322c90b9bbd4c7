// Policy-epoch cache of per-application power/runtime factors.
//
// The facility simulator resolves, for every job start, the application's
// P-state under the active policy, its runtime stretch and its node draw —
// all pure functions of (application, BIOS mode, P-state) that change only
// when the operating policy changes.  This cache evaluates them once per
// policy epoch — per application and per expressible P-state — and serves
// job starts from flat lookups: an O(1) slot fetch plus two multiply-adds
// for the silicon-dependent draw (power/node_model.hpp `NodePowerTerms`).
//
// Bit-for-bit identity: every cached number is produced by the same call
// the uncached path made (`ApplicationModel::time_factor`, the
// `node_power` expression via `node_draw_terms`, `AppCatalog::mix_average`
// for the demand scale), so consuming the cache is a pure reordering of
// when the arithmetic runs, not a change to it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "power/node_model.hpp"
#include "workload/catalog.hpp"
#include "workload/policy.hpp"

namespace hpcem {

/// Per-(application, policy) factors cached across a policy epoch.
class PolicyFactorCache {
 public:
  /// What a job of one application runs at under the active policy.
  struct JobFactors {
    PState pstate{};           ///< resolved P-state
    double time_factor = 1.0;  ///< runtime stretch vs reference conditions
    NodePowerTerms draw{};     ///< silicon-independent node-draw terms
  };

  /// Binds to a catalogue; call `set_policy` before the first lookup.
  explicit PolicyFactorCache(const AppCatalog& catalog);

  /// Install a policy and rebuild every cached factor (bumps the epoch).
  void set_policy(const OperatingPolicy& policy);

  [[nodiscard]] const OperatingPolicy& policy() const { return policy_; }
  /// Number of rebuilds so far (0 until the first `set_policy`).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Factors a job runs at: its user P-state pin if present, else the
  /// policy resolution (auto-revert or service default) for its
  /// application.
  [[nodiscard]] const JobFactors& factors(const JobSpec& job) const;

  /// Arrival-rate multiplier keeping the offered node-hour stream
  /// constant under the active policy: 1 / mix-average time factor
  /// (same accumulation as `AppCatalog::mix_average`).
  [[nodiscard]] double demand_scale() const { return demand_scale_; }

 private:
  /// Slot of an expressible P-state in the per-app factor array.
  [[nodiscard]] static std::size_t slot_of(const PState& pstate);

  static constexpr std::size_t kPStateSlots = 4;

  const AppCatalog* catalog_;
  OperatingPolicy policy_{};
  std::uint64_t epoch_ = 0;
  /// [app][pstate slot], catalogue insertion order.
  std::vector<std::array<JobFactors, kPStateSlots>> by_app_;
  /// Policy-resolved default slot per app (after any auto-revert).
  std::vector<std::size_t> default_slot_;
  double demand_scale_ = 1.0;
};

}  // namespace hpcem
