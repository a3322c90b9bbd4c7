#include "core/assembly.hpp"

#include <span>
#include <utility>

#include "core/scenario_library.hpp"
#include "telemetry/seasonal.hpp"

#include "util/error.hpp"

namespace hpcem {

namespace {

Facility build_machine(MachineModel machine) {
  switch (machine) {
    case MachineModel::kArcher2:
      return Facility::archer2();
    case MachineModel::kTestbed:
      return Facility::testbed();
    case MachineModel::kMicro:
      return Facility::micro();
  }
  throw InvalidArgument("FacilityAssembly: unknown machine model");
}

void validate(const ScenarioSpec& spec) {
  require(spec.window_end > spec.window_start, "ScenarioSpec '", spec.name,
          "': window end must follow start");
  require(spec.warmup.sec() >= 0.0, "ScenarioSpec '", spec.name,
          "': warmup must be non-negative");
  for (const auto& window : spec.maintenance) {
    require(window.end > window.block_from, "ScenarioSpec '", spec.name,
            "': maintenance end must follow block_from");
  }
  if (spec.sample_interval) {
    require(spec.sample_interval->sec() > 0.0, "ScenarioSpec '", spec.name,
            "': sample interval must be positive");
  }
  if (spec.metering_noise_sigma) {
    require(*spec.metering_noise_sigma >= 0.0, "ScenarioSpec '", spec.name,
            "': metering noise sigma must be non-negative");
  }
  if (spec.offered_load) {
    require(*spec.offered_load > 0.0, "ScenarioSpec '", spec.name,
            "': offered load must be positive");
  }
  if (spec.user_turbo_pin_fraction) {
    require(*spec.user_turbo_pin_fraction >= 0.0 &&
                *spec.user_turbo_pin_fraction <= 1.0,
            "ScenarioSpec '", spec.name,
            "': turbo pin fraction must be in [0,1]");
  }
  if (spec.telemetry_max_raw_samples) {
    require(*spec.telemetry_max_raw_samples >= 2, "ScenarioSpec '", spec.name,
            "': telemetry retention cap must be >= 2");
  }
}

}  // namespace

std::optional<SimTime> ScenarioSpec::first_change_in_window() const {
  std::optional<SimTime> first;
  for (const auto& change : changes) {
    if (change.at > window_start && change.at < window_end) {
      if (!first || change.at < *first) first = change.at;
    }
  }
  return first;
}

// The paper campaigns live as data in the committed scenario library;
// these accessors are thin loads so every existing call site keeps
// working while scenarios/*.json is the single source of truth.
ScenarioSpec ScenarioSpec::figure1() { return load_named_scenario("figure1"); }

ScenarioSpec ScenarioSpec::figure2() { return load_named_scenario("figure2"); }

ScenarioSpec ScenarioSpec::figure3() { return load_named_scenario("figure3"); }

ScenarioSpec ScenarioSpec::archer2_baseline() {
  return load_named_scenario("archer2-baseline");
}

FacilityAssembly::FacilityAssembly(ScenarioSpec spec)
    : spec_(std::move(spec)),
      owned_(std::make_shared<const Facility>(build_machine(spec_.machine))),
      facility_(owned_.get()) {
  validate(spec_);
}

FacilityAssembly::FacilityAssembly(const Facility& facility,
                                   ScenarioSpec spec)
    : spec_(std::move(spec)), owned_(nullptr), facility_(&facility) {
  validate(spec_);
}

FacilitySimConfig FacilityAssembly::sim_config(std::uint64_t seed) const {
  FacilitySimConfig cfg = facility_->sim_config(seed);
  cfg.sched_discipline = spec_.discipline;
  cfg.sched_weights = spec_.weights;
  if (spec_.sample_interval) cfg.sample_interval = *spec_.sample_interval;
  if (spec_.metering_noise_sigma) {
    cfg.metering_noise_sigma = *spec_.metering_noise_sigma;
  }
  if (spec_.offered_load) cfg.gen.offered_load = *spec_.offered_load;
  if (spec_.user_turbo_pin_fraction) {
    cfg.gen.user_turbo_pin_fraction = *spec_.user_turbo_pin_fraction;
  }
  if (spec_.telemetry_max_raw_samples) {
    cfg.telemetry_max_raw_samples = *spec_.telemetry_max_raw_samples;
  }
  return cfg;
}

SimComposition FacilityAssembly::composition(
    const FacilitySimConfig& config) const {
  SimComposition c;
  c.sources.push_back(std::make_unique<NodeFleetSource>(
      config.node_params, spec_.idle_policy));
  c.sources.push_back(std::make_unique<SwitchFabricSource>(
      config.switch_model, config.inventory.switches));
  c.sources.push_back(std::make_unique<CabinetOverheadSource>(
      config.cabinet_model, config.inventory.cabinets));
  if (spec_.model_cdus) {
    c.sources.push_back(std::make_unique<CduSource>(
        CduPowerModel{}, config.inventory.cdus));
  }
  if (spec_.model_filesystems) {
    c.sources.push_back(std::make_unique<FilesystemSource>(
        FilesystemPowerModel{}, config.inventory.filesystems));
  }
  if (spec_.cooling_outdoor_c) {
    // Ordered last so the amplified total includes every upstream source.
    c.sources.push_back(std::make_unique<CoolingOverheadSource>(
        CoolingModel{}, *spec_.cooling_outdoor_c));
  }
  c.probes.push_back(std::make_unique<UtilisationProbe>());
  c.probes.push_back(std::make_unique<QueueStateProbe>());
  return c;
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::make_simulator() const {
  return make_simulator(spec_.seed);
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::make_simulator(
    std::uint64_t seed) const {
  const FacilitySimConfig cfg = sim_config(seed);
  auto sim = std::make_unique<FacilitySimulator>(facility_->catalog(), cfg,
                                                 composition(cfg));
  sim->set_policy(spec_.policy);
  for (const auto& change : spec_.changes) {
    sim->schedule_policy_change(change.at, change.policy);
  }
  for (const auto& window : spec_.maintenance) {
    sim->schedule_maintenance(window.block_from, window.end);
  }
  return sim;
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::run_simulator() const {
  return run_simulator(spec_.seed);
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::run_simulator(
    std::uint64_t seed) const {
  auto sim = make_simulator(seed);
  sim->run(spec_.window_start - spec_.warmup, spec_.window_end);
  return sim;
}

TimelineResult FacilityAssembly::run() const { return run(spec_.seed); }

TimelineResult FacilityAssembly::run(std::uint64_t seed) const {
  const auto sim = run_simulator(seed);
  return analyze_timeline(*sim, spec_);
}

TimelineResult analyze_timeline(const FacilitySimulator& sim,
                                const ScenarioSpec& spec) {
  const SimTime start = spec.window_start;
  const SimTime end = spec.window_end;
  const std::optional<SimTime> change = spec.first_change_in_window();

  TimelineResult r;
  r.window_start = start;
  r.window_end = end;
  r.change_time = change;
  r.cabinet_kw =
      sim.telemetry().series(sim.cabinet_channel()).slice(start, end);
  require_state(r.cabinet_kw.size() >= 16,
                "analyze_timeline: window produced too few samples");
  r.mean_kw = r.cabinet_kw.mean();
  r.mean_utilisation = sim.mean_utilisation(start, end);
  if (change) {
    r.mean_before_kw = r.cabinet_kw.mean_over(start, *change);
    r.mean_after_kw = r.cabinet_kw.mean_over(*change, end);
  } else {
    r.mean_before_kw = r.mean_kw;
    r.mean_after_kw = r.mean_kw;
  }
  // Recover the step from the data alone (min segment: one day of
  // samples).  For a campaign with a known rollout the exact single-step
  // segmentation is appropriate; for a no-change window use the penalised
  // multi-step detector so pure noise reports no step at all.
  if (change) {
    r.detected = detect_single_step(r.cabinet_kw, 48);
  } else {
    // The half-hourly series is dominated by the weekly submission cycle
    // and slow queue dynamics, both of which fool a raw step detector.
    // Deseasonalise, average to daily means (which decorrelates the
    // scheduler noise), then ask for a step that clears a stiff penalty —
    // a no-change window should report nothing.
    TimeSeries for_detection = r.cabinet_kw;
    if (r.cabinet_kw.span().day() >= 14.0) {
      for_detection =
          deseasonalise(r.cabinet_kw, decompose_weekly(r.cabinet_kw))
              .resample(Duration::days(1.0));
    }
    const auto vals = for_detection.values();
    const auto steps =
        detect_steps(std::span<const double>(vals), 7, /*penalty=*/12.0);
    if (!steps.empty()) {
      const SimTime at = for_detection[steps.front().index].time;
      TimedStepChange sc;
      sc.time = at;
      sc.mean_before = r.cabinet_kw.mean_over(start, at);
      sc.mean_after = r.cabinet_kw.mean_over(at, end);
      r.detected = sc;
    }
  }
  return r;
}

CampaignScenario make_campaign_scenario(
    std::shared_ptr<const FacilityAssembly> assembly) {
  require(assembly != nullptr, "make_campaign_scenario: null assembly");
  const ScenarioSpec& spec = assembly->spec();
  CampaignScenario scenario;
  scenario.name = spec.name;
  scenario.window_start = spec.window_start;
  scenario.window_end = spec.window_end;
  scenario.warmup = spec.warmup;
  scenario.split_at = spec.first_change_in_window();
  scenario.build = [assembly](std::uint64_t seed) {
    return assembly->make_simulator(seed);
  };
  return scenario;
}

CampaignResult run_campaign(const std::vector<ScenarioSpec>& specs,
                            const CampaignConfig& config) {
  require(!specs.empty(), "run_campaign: no scenarios");
  std::vector<CampaignScenario> scenarios;
  scenarios.reserve(specs.size());
  for (const auto& spec : specs) {
    scenarios.push_back(make_campaign_scenario(
        std::make_shared<const FacilityAssembly>(spec)));
  }
  return CampaignRunner(config).run(scenarios);
}

}  // namespace hpcem
