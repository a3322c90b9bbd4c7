// Declarative facility assembly: one ScenarioSpec -> a ready-to-run
// simulator.
//
// Every reproduction harness used to hand-assemble the same ARCHER2
// configuration (inventory, power models, workload mix, scheduler
// discipline) before tweaking one knob.  `ScenarioSpec` is the single
// declarative description of a simulated campaign — which machine, which
// window, which operating policy, which mid-window changes, which plant
// extras — and `FacilityAssembly` turns a spec into the canonical
// configuration, composition (sim/composition.hpp) and armed simulator.
// The campaign layer (core/campaign.hpp) fans specs out over a thread pool.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/emissions.hpp"
#include "core/facility.hpp"
#include "telemetry/changepoint.hpp"
#include "telemetry/timeseries.hpp"

namespace hpcem {

/// A policy rollout at an instant (the paper's BIOS/frequency changes).
struct PolicyChange {
  SimTime at{};
  OperatingPolicy policy{};

  friend bool operator==(const PolicyChange&, const PolicyChange&) = default;
};

/// A maintenance reservation: job starts blocked in [block_from, end).
struct MaintenanceWindow {
  SimTime block_from{};
  SimTime end{};

  friend bool operator==(const MaintenanceWindow&,
                         const MaintenanceWindow&) = default;
};

/// Grid carbon-intensity context a scenario is priced against: a constant
/// or a piecewise-linear breakpoint curve ((epoch s, gCO2/kWh), strictly
/// time-sorted, clamped outside its span).  The one intensity type of the
/// spec files and of serve regimes/whatif requests, both parsed by
/// spec_io's `grid` codec; the simulator itself does not consume it.
struct GridIntensitySeries {
  std::optional<CarbonIntensity> constant;
  std::vector<std::pair<double, double>> points;

  /// Interpolated intensity at an instant (clamped at the ends).
  [[nodiscard]] CarbonIntensity at(SimTime t) const;

  friend bool operator==(const GridIntensitySeries&,
                         const GridIntensitySeries&) = default;
};

/// Which calibrated machine model a spec runs on.
enum class MachineModel {
  kArcher2,  ///< the full 5,860-node flagship
  kTestbed,  ///< 512 nodes, same physics (CI and experimentation)
  kMicro,    ///< 64 nodes (campaign fan-out benchmarks, fast tests)
};

/// Declarative description of one simulated measurement campaign.
struct ScenarioSpec {
  std::string name = "scenario";
  MachineModel machine = MachineModel::kArcher2;

  /// Measurement window [window_start, window_end).
  SimTime window_start{};
  SimTime window_end{};
  /// Steady-state pre-roll simulated before the window opens.
  Duration warmup = Duration::days(25.0);

  /// Seed of a single run and of replicate 0 in a campaign (later
  /// replicates run at `replicate_seed(seed, r)`).
  std::uint64_t seed = 0x5EED;

  /// Operating policy at simulation start.
  OperatingPolicy policy = OperatingPolicy::baseline();
  /// Scheduled rollouts.  Pre-window changes arm the policy at the window
  /// start (latest wins); changes at or after window_end are ignored.
  std::vector<PolicyChange> changes;
  std::vector<MaintenanceWindow> maintenance;

  /// Scheduler discipline.
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  PriorityWeights weights{};

  /// Simulator overrides; nullopt keeps the machine defaults.
  std::optional<Duration> sample_interval;
  std::optional<double> metering_noise_sigma;
  std::optional<double> offered_load;
  std::optional<double> user_turbo_pin_fraction;

  /// Optional plant components appended to the standard composition
  /// (outside the cabinet metering boundary; extra telemetry channels).
  bool model_cdus = false;
  bool model_filesystems = false;
  /// When set, adds a PUE-style cooling overhead source at this constant
  /// outdoor temperature (degC).
  std::optional<double> cooling_outdoor_c;
  /// Idle-node suspension lever (disabled by default, as on ARCHER2).
  IdlePowerPolicy idle_policy{};

  /// Emissions-pricing context (not consumed by the simulator): the grid
  /// intensity curve and scope-3 parameters serve regimes/whatif price
  /// this scenario against.  Carried so a scenario file is the complete
  /// description of a campaign *and* its emissions question.
  std::optional<GridIntensitySeries> grid;
  std::optional<EmbodiedParams> scope3;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// First scheduled change strictly inside the window, if any (the
  /// before/after split instant for analysis).
  [[nodiscard]] std::optional<SimTime> first_change_in_window() const;
};

/// The headline numbers every figure/campaign reports.
struct RunHeadline {
  PowerKw mean_kw;
  PowerKw mean_before_kw;
  PowerKw mean_after_kw;
  double mean_utilisation = 0.0;
  EnergyKwh window_energy_kwh;
  double completed_jobs = 0.0;  ///< replicate mean for campaigns
};

/// Result of one scenario run.
struct TimelineResult {
  /// Cabinet power over the measurement window (kW channel).
  TimeSeries cabinet_kw;
  /// window_headline of `cabinet_kw`, computed once per run: the window
  /// mean, the means before/after the scheduled change (equal to mean_kw
  /// when the scenario has no change), utilisation, energy and jobs.
  RunHeadline headline;
  /// Change point recovered from the data by least-squares segmentation.
  std::optional<TimedStepChange> detected;
  /// When the operational change was actually applied (if any).
  std::optional<SimTime> change_time;
  SimTime window_start;
  SimTime window_end;
};

/// Builds the canonical configuration and simulators for one spec: the one
/// path from a scenario description to a running simulator.
///
/// Immutable after construction, so a const assembly may be shared across
/// campaign worker threads; every make_simulator() call produces a fresh
/// shared-nothing simulator.
class FacilityAssembly {
 public:
  /// Assemble the machine named by spec.machine.
  explicit FacilityAssembly(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] const Facility& facility() const { return *facility_; }

  /// The simulator configuration for this spec at a given seed.
  [[nodiscard]] FacilitySimConfig sim_config(std::uint64_t seed) const;

  /// The component list for this spec: the standard cabinet-boundary
  /// breakdown (FacilitySimulator::standard_composition, with the spec's
  /// idle policy) plus any plant extras the spec asks for.
  [[nodiscard]] SimComposition composition(
      const FacilitySimConfig& config) const;

  /// A ready-to-run simulator: configuration built, policy set, changes
  /// and maintenance armed.  Call sim->run(spec window - warmup, end) (or
  /// sim->run_trace), or use run_simulator()/run() below.  The seeded
  /// overload serves the campaign layer's per-replicate streams.
  ///
  /// The simulator borrows this assembly's catalogue (job records carry
  /// AppIds only it can name), so the assembly must outlive it: building
  /// one from a temporary assembly does not compile.
  [[nodiscard]] std::unique_ptr<FacilitySimulator> make_simulator() const&;
  [[nodiscard]] std::unique_ptr<FacilitySimulator> make_simulator(
      std::uint64_t seed) const&;
  std::unique_ptr<FacilitySimulator> make_simulator() const&& = delete;
  std::unique_ptr<FacilitySimulator> make_simulator(
      std::uint64_t seed) const&& = delete;

  /// Build and run to completion (warmup + window) at the spec's seed;
  /// returns the simulator for telemetry/job-record access.
  [[nodiscard]] std::unique_ptr<FacilitySimulator> run_simulator() const&;
  std::unique_ptr<FacilitySimulator> run_simulator() const&& = delete;

  /// Build, run and analyse the measurement window.
  [[nodiscard]] TimelineResult run() const;

 private:
  ScenarioSpec spec_;
  /// Shared so simulators' catalogue pointers stay valid if the assembly
  /// moves.
  std::shared_ptr<const Facility> facility_;
};

/// Headline of a finished run of `spec`: `window` is its cabinet channel
/// sliced to the spec's window.  Means split at the first in-window change
/// (before == after == window mean without one); the job count takes jobs
/// that ended inside the window.
[[nodiscard]] RunHeadline window_headline(const FacilitySimulator& sim,
                                          const ScenarioSpec& spec,
                                          const TimeSeries& window);

/// Window analysis on a finished run: slice the cabinet channel, compute
/// window/before/after means and recover the changepoint from the data
/// alone — the same analysis an operator would run on real cabinet
/// telemetry.
[[nodiscard]] TimelineResult analyze_timeline(const FacilitySimulator& sim,
                                              const ScenarioSpec& spec);

/// §5 conclusions: the three campaign means and the derived savings.
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

/// Conclusions from the figure 1 (baseline), figure 2 (BIOS change) and
/// figure 3 (frequency change) campaign results.
[[nodiscard]] Conclusions conclusions(const TimelineResult& fig1,
                                      const TimelineResult& fig2,
                                      const TimelineResult& fig3);

}  // namespace hpcem
