// Canned facility scenarios reproducing the paper's measurement campaigns.
//
// Three timelines, matching Figures 1-3:
//  * Figure 1: Dec 2021 - Apr 2022, baseline policy (power determinism,
//    2.25 GHz + turbo).  Published mean: 3,220 kW.
//  * Figure 2: Apr - May 2022 with the BIOS change to performance
//    determinism rolling out mid-May.  Published means: 3,220 -> 3,010 kW.
//  * Figure 3: Nov - Dec 2022 with the default-frequency change to 2.0 GHz
//    (plus the >10%-slowdown auto-revert) at the start of December.
//    Published means: 3,010 -> 2,530 kW.
//
// `ScenarioRunner` is a thin convenience facade over the declarative
// assembly layer (core/assembly.hpp): each campaign is a `ScenarioSpec`
// bound to this runner's facility, seed and warm-up, assembled and analysed
// by `FacilityAssembly`.  `TimelineResult` lives in assembly.hpp.
#pragma once

#include <optional>

#include "core/assembly.hpp"
#include "core/facility.hpp"

namespace hpcem {

/// Runs the paper's three measurement campaigns on a facility model.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const Facility& facility,
                          std::uint64_t seed = 0x5EED);

  /// Days of steady-state pre-roll before each measurement window.
  void set_warmup(Duration warmup) { warmup_ = warmup; }

  [[nodiscard]] TimelineResult figure1() const;
  [[nodiscard]] TimelineResult figure2() const;
  [[nodiscard]] TimelineResult figure3() const;

  /// A generic campaign: simulate [start, end) under `before`, switching to
  /// `after` at `change` (pass nullopt for a no-change campaign).
  [[nodiscard]] TimelineResult run_campaign(
      SimTime start, SimTime end, const OperatingPolicy& before,
      std::optional<SimTime> change,
      std::optional<OperatingPolicy> after) const;

  /// §5 conclusions: the three means and the derived savings.
  struct Conclusions {
    PowerKw baseline_kw;
    PowerKw after_bios_kw;
    PowerKw after_freq_kw;
    PowerKw bios_saving_kw;
    double bios_saving_fraction = 0.0;
    PowerKw freq_saving_kw;
    double freq_saving_fraction = 0.0;  ///< vs the original baseline
    PowerKw total_saving_kw;
    double total_saving_fraction = 0.0;
  };
  [[nodiscard]] Conclusions conclusions() const;

 private:
  /// Bind a canned spec to this runner's facility/seed/warmup and run it.
  [[nodiscard]] TimelineResult run_spec(ScenarioSpec spec) const;

  const Facility* facility_;
  std::uint64_t seed_;
  Duration warmup_ = Duration::days(25.0);
};

}  // namespace hpcem
