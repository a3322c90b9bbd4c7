#include "workload/power_cap.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hpcem {

namespace {

/// Node draw of `app` with its core clock pinned to `f` (performance
/// determinism; the continuous generalisation of the P-state model).
Power draw_at_ghz(const ApplicationModel& app, double ghz) {
  const auto& np = app.node_params();
  const auto& profile = app.profile();
  const double phi =
      dvfs_factor(np.cpu, Frequency::ghz(ghz), app.spec().boost);
  return np.idle + profile.uncore_w + profile.core_w * phi;
}

/// Runtime multiplier of `app` with its core clock pinned to `ghz`.
double time_factor_at(const ApplicationModel& app, double ghz) {
  const double beta = app.spec().beta;
  return (1.0 - beta) + beta * app.spec().boost.to_ghz() / ghz;
}

}  // namespace

CappedOperatingPoint apply_power_cap(const ApplicationModel& app,
                                     Power cap) {
  require(cap.w() > 0.0, "apply_power_cap: cap must be positive");
  const Frequency boost = app.spec().boost;

  CappedOperatingPoint out;
  const Power uncapped = draw_at_ghz(app, boost.to_ghz());
  if (uncapped <= cap) {
    out.effective = boost;
    out.node_power = uncapped;
    out.throttled = false;
    out.time_factor = 1.0;
    return out;
  }

  out.throttled = true;
  const Power floor_draw = draw_at_ghz(app, kMinThrottleGhz);
  if (floor_draw >= cap) {
    // Unreachable cap: firmware bottoms out at the throttle floor.
    out.effective = Frequency::ghz(kMinThrottleGhz);
    out.node_power = floor_draw;
    out.time_factor = time_factor_at(app, kMinThrottleGhz);
    return out;
  }

  // Bisection on the monotone draw(f) curve.
  double lo = kMinThrottleGhz;
  double hi = boost.to_ghz();
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (draw_at_ghz(app, mid) > cap) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  out.effective = Frequency::ghz(lo);
  out.node_power = draw_at_ghz(app, lo);
  out.time_factor = time_factor_at(app, lo);
  HPCEM_ASSERT(out.node_power <= cap + Power::watts(0.5),
               "bisection must respect the cap");
  return out;
}

std::optional<Power> cap_for_target_draw(const AppCatalog& catalog,
                                         Power target_mean_draw) {
  require(target_mean_draw.w() > 0.0,
          "cap_for_target_draw: target must be positive");
  auto mean_draw_under = [&](Power cap) {
    return catalog.mix_average([&](const ApplicationModel& app) {
      return apply_power_cap(app, cap).node_power.w();
    });
  };
  // The floor: every app throttled to the minimum clock.
  const double floor = catalog.mix_average([&](const ApplicationModel& app) {
    return draw_at_ghz(app, kMinThrottleGhz).w();
  });
  if (target_mean_draw.w() < floor) return std::nullopt;

  double lo = 100.0;
  double hi = 1000.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mean_draw_under(Power::watts(mid)) > target_mean_draw.w()) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return Power::watts(0.5 * (lo + hi));
}

std::vector<CapComparisonRow> compare_cap_vs_frequency(
    const AppCatalog& catalog, Power cap) {
  std::vector<CapComparisonRow> out;
  const auto mode = DeterminismMode::kPerformanceDeterminism;
  for (const auto* app : catalog.production_mix()) {
    CapComparisonRow row;
    row.app = app->name();
    const CappedOperatingPoint capped = apply_power_cap(*app, cap);
    row.cap_time_factor = capped.time_factor;
    row.cap_node_w = capped.node_power;
    row.freq_time_factor = app->time_factor(mode, pstates::kMid);
    row.freq_node_w = app->node_draw(mode, pstates::kMid);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace hpcem
