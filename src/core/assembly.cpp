#include "core/assembly.hpp"

#include <algorithm>
#include <span>
#include <utility>

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
}

}  // namespace

CarbonIntensity GridIntensitySeries::at(SimTime t) const {
  if (constant) return *constant;
  HPCEM_ASSERT(!points.empty(), "GridIntensitySeries: empty breakpoint list");
  const double x = t.sec();
  if (x <= points.front().first) {
    return CarbonIntensity::g_per_kwh(points.front().second);
  }
  if (x >= points.back().first) {
    return CarbonIntensity::g_per_kwh(points.back().second);
  }
  const auto hi = std::lower_bound(
      points.begin(), points.end(), x,
      [](const std::pair<double, double>& p, double v) { return p.first < v; });
  const auto lo = hi - 1;
  const double f = (x - lo->first) / (hi->first - lo->first);
  return CarbonIntensity::g_per_kwh(lo->second +
                                    f * (hi->second - lo->second));
}

std::optional<SimTime> ScenarioSpec::first_change_in_window() const {
  std::optional<SimTime> first;
  for (const auto& change : changes) {
    if (change.at > window_start && change.at < window_end) {
      if (!first || change.at < *first) first = change.at;
    }
  }
  return first;
}

FacilityAssembly::FacilityAssembly(ScenarioSpec spec)
    : spec_(std::move(spec)),
      facility_(
          std::make_shared<const Facility>(build_machine(spec_.machine))) {
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
  return cfg;
}

SimComposition FacilityAssembly::composition(
    const FacilitySimConfig& config) const {
  SimComposition c =
      FacilitySimulator::standard_composition(config, spec_.idle_policy);
  if (spec_.model_cdus) {
    c.push_back(std::make_unique<CduSource>(
        CduPowerModel{}, config.inventory.cdus));
  }
  if (spec_.model_filesystems) {
    c.push_back(std::make_unique<FilesystemSource>(
        FilesystemPowerModel{}, config.inventory.filesystems));
  }
  if (spec_.cooling_outdoor_c) {
    // Ordered last so the amplified total includes every upstream source.
    c.push_back(std::make_unique<CoolingOverheadSource>(
        CoolingModel{}, *spec_.cooling_outdoor_c));
  }
  return c;
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::make_simulator() const& {
  return make_simulator(spec_.seed);
}

std::unique_ptr<FacilitySimulator> FacilityAssembly::make_simulator(
    std::uint64_t seed) const& {
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

std::unique_ptr<FacilitySimulator> FacilityAssembly::run_simulator() const& {
  auto sim = make_simulator();
  sim->run(spec_.window_start - spec_.warmup, spec_.window_end);
  return sim;
}

TimelineResult FacilityAssembly::run() const {
  const auto sim = run_simulator();
  return analyze_timeline(*sim, spec_);
}

RunHeadline window_headline(const FacilitySimulator& sim,
                            const ScenarioSpec& spec,
                            const TimeSeries& window) {
  const SimTime start = spec.window_start;
  const SimTime end = spec.window_end;
  RunHeadline h;
  h.mean_kw = PowerKw{window.mean()};
  if (const std::optional<SimTime> change = spec.first_change_in_window()) {
    h.mean_before_kw = PowerKw{window.mean_over(start, *change)};
    h.mean_after_kw = PowerKw{window.mean_over(*change, end)};
  } else {
    h.mean_before_kw = h.mean_kw;
    h.mean_after_kw = h.mean_kw;
  }
  h.mean_utilisation = sim.mean_utilisation(start, end);
  // integrate() returns kW-seconds over the sliced window.
  h.window_energy_kwh = EnergyKwh{window.integrate() / 3600.0};
  std::size_t in_window = 0;
  for (const auto& r : sim.completed()) {
    if (r.end_time >= start && r.end_time < end) ++in_window;
  }
  h.completed_jobs = static_cast<double>(in_window);
  return h;
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
  r.headline = window_headline(sim, spec, r.cabinet_kw);
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

Conclusions conclusions(const TimelineResult& fig1,
                        const TimelineResult& fig2,
                        const TimelineResult& fig3) {
  Conclusions c;
  c.baseline_kw = fig1.headline.mean_kw;
  c.after_bios_kw = fig2.headline.mean_after_kw;
  c.after_freq_kw = fig3.headline.mean_after_kw;
  c.bios_saving_kw = c.baseline_kw - c.after_bios_kw;
  c.bios_saving_fraction = c.bios_saving_kw / c.baseline_kw;
  c.freq_saving_kw = c.after_bios_kw - c.after_freq_kw;
  c.freq_saving_fraction = c.freq_saving_kw / c.baseline_kw;
  c.total_saving_kw = c.baseline_kw - c.after_freq_kw;
  c.total_saving_fraction = c.total_saving_kw / c.baseline_kw;
  return c;
}

}  // namespace hpcem
