// Parallel multi-scenario campaign execution.
//
// Facility energy analysis is consumed as *campaigns*: many scenarios
// (policies, machines, windows) x several seeds each, not single runs.
// `CampaignRunner` executes N scenarios x M replicate seeds on a fixed-size
// thread pool; every (scenario, seed) task owns a shared-nothing simulator
// built from an immutable scenario description.  Replicate 0 runs at the
// scenario's own seed, so a campaign row repeats the single run of the
// same spec; replicate r >= 1 runs at a fixed mix of (seed, r) — never a
// function of thread identity, scheduling order or the scenario's position
// in the campaign.  Results are reduced per scenario through the
// RunningStats merge hook in task-index order, so a campaign's merged
// output is bit-identical regardless of the worker count.
//
// The scenario description here is deliberately thin (a name, a seed, a
// window and a simulator factory): the declarative `ScenarioSpec` ->
// simulator wiring lives one layer up in core/assembly.hpp, keeping sim/
// free of a core/ dependency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/facility_sim.hpp"
#include "util/stats.hpp"

namespace hpcem {

/// One executable scenario: a seed and a window plus a factory that builds
/// a ready-to-run simulator (policy, changes and maintenance already armed)
/// for a given seed.  The factory is called from worker threads and must be
/// safe to invoke concurrently (i.e. close over immutable state only).
struct CampaignScenario {
  std::string name = "scenario";
  /// Seed of replicate 0 (the spec's `seed`).
  std::uint64_t seed = 0x5EED;
  SimTime window_start{};
  SimTime window_end{};
  /// Steady-state pre-roll simulated before the window opens.
  Duration warmup = Duration::days(0.0);
  /// Instant to split before/after means at (a mid-window policy rollout);
  /// nullopt for an unsplit window.
  std::optional<SimTime> split_at;
  std::function<std::unique_ptr<FacilitySimulator>(std::uint64_t seed)>
      build;
};

/// Campaign-wide execution settings.
struct CampaignConfig {
  /// Worker threads; 0 means ThreadPool::default_workers().
  std::size_t workers = 0;
  /// Replicate seeds per scenario.
  std::size_t seeds_per_scenario = 1;
};

/// The seed replicate `replicate` of a scenario runs at: `seed` itself for
/// replicate 0, a splitmix64 mix of (seed, replicate) for the others.
[[nodiscard]] std::uint64_t replicate_seed(std::uint64_t seed,
                                           std::size_t replicate);

/// Merged per-scenario outcome: each RunningStats accumulates one value per
/// replicate seed, merged in replicate order.
struct ScenarioOutcome {
  std::string name;
  std::size_t replicates = 0;
  RunningStats mean_kw;            ///< window-mean cabinet power, kW
  RunningStats mean_before_kw;     ///< before split_at (== mean_kw unsplit)
  RunningStats mean_after_kw;      ///< after split_at (== mean_kw unsplit)
  RunningStats mean_utilisation;
  RunningStats window_energy_kwh;  ///< cabinet energy over the window
  RunningStats completed_jobs;     ///< jobs finished during the window

  /// Fold another outcome for the same scenario into this one (the
  /// RunningStats merge hook; associative, order-sensitive at bit level).
  void merge(const ScenarioOutcome& other);
};

/// Result of one campaign: outcomes in input-scenario order.
struct CampaignResult {
  std::vector<ScenarioOutcome> scenarios;
  std::size_t workers_used = 0;
  std::size_t total_runs = 0;
};

/// Executes scenario campaigns on a fixed-size worker pool.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config = {});

  [[nodiscard]] const CampaignConfig& config() const { return config_; }

  /// Run every (scenario, replicate) pair and merge.  Throws the first (by
  /// task index) exception raised by any task, after all tasks drained.
  [[nodiscard]] CampaignResult run(
      const std::vector<CampaignScenario>& scenarios) const;

 private:
  CampaignConfig config_;
};

}  // namespace hpcem
