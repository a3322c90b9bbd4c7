// Parallel multi-scenario campaign execution.
//
// Facility energy analysis is consumed as *campaigns*: many scenarios
// (policies, machines, windows) x several seeds each, not single runs.
// `run_campaign` executes N specs x M replicate seeds on a fixed-size
// thread pool.  It assembles every spec once (core/assembly.hpp), and each
// (spec, replicate) task runs its own shared-nothing simulator from that
// immutable assembly.  Replicate 0 runs at the spec's own seed, so a
// campaign row repeats the single run of the same spec; replicate r >= 1
// runs at a fixed mix of (seed, r) — never a function of thread identity,
// scheduling order or the spec's position in the campaign.  Results are
// reduced per scenario through the RunningStats merge hook in task-index
// order, so a campaign's merged output is bit-identical regardless of the
// worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/assembly.hpp"
#include "util/stats.hpp"

namespace hpcem {

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
  RunningStats mean_before_kw;     ///< before the first in-window change
  RunningStats mean_after_kw;      ///< after it (both == mean_kw unsplit)
  RunningStats mean_utilisation;
  RunningStats window_energy_kwh;  ///< cabinet energy over the window
  RunningStats completed_jobs;     ///< jobs finished during the window

  /// Fold another outcome for the same scenario into this one (the
  /// RunningStats merge hook; associative, order-sensitive at bit level).
  void merge(const ScenarioOutcome& other);
};

/// Result of one campaign: outcomes in input-spec order.
struct CampaignResult {
  std::vector<ScenarioOutcome> scenarios;
  std::size_t workers_used = 0;
  std::size_t total_runs = 0;
};

/// Run every (spec, replicate) pair over [window_start - warmup,
/// window_end) and merge.  Throws the first (by task index) exception
/// raised by any task, after all tasks drained.
[[nodiscard]] CampaignResult run_campaign(
    const std::vector<ScenarioSpec>& specs,
    const CampaignConfig& config = {});

}  // namespace hpcem
