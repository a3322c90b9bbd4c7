// The ingest-time query indexes against the scans they replace: the block
// min/max index must give window_aggregate the bit-identical min/max of a
// linear scan, and whatif's prefix-column pricing must match the
// compensated per-interval loop it replaced within a stated bound.  Also
// the whatif metamorphic relations (energy agreement, constant and scaled
// intensities, window additivity).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/artifact_store.hpp"
#include "serve/multi_store.hpp"
#include "serve/query.hpp"
#include "telemetry/timeseries.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hpcem::serve {
namespace {

// Bound on |prefix-column whatif - per-interval reference| / |reference|.
//
// Why 2e-9: each stored prefix is one rounding of a compensated sum, so a
// prefix difference is off by at most 2 eps of the prefix at the window
// end (P_end), and the moment column's difference by 2 eps * P_end * T
// (T = channel span).  A curve segment adds g * (SA error) plus
// |beta| * (SM error + |x_k - t0| * SA error) <= eps * P_end * (2 g + 5
// |beta| T) to the grams sum.  The reference is at least g_min * P_win
// (P_win = the window's energy) and is itself within a few eps.  On the
// channels below — at most 400 samples 60..300 s apart at 1,000..4,000 kW,
// so P_end / P_win <= 8,000; values 25..250 g/kWh and breakpoints on a
// grid a sixth of the channel span apart, so sum |beta| T <= 5 * 225 * 6
// and the segment factor is at most (7 * 2 * 250 + 5 * 6,750) / 25 ~
// 1,500 — the relative error is at most eps * 8,000 * 1,500 ~ 1.3e-9 with
// every bound at its worst at once.  The observed worst is about 7e-14.
constexpr double kRelBound = 2e-9;

constexpr double kT0 = 1.65e9;  // an epoch in 2022

/// A one-channel kW scenario over the given samples.
RunArtifact artifact_of(const std::string& scenario,
                        const std::vector<Sample>& samples) {
  TimeSeries s("kW");
  for (const Sample& x : samples) s.append(x.time, x.value);
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = PowerKw{s.summary().mean};
  a.channels.push_back(aggregate_channel("cabinet_kw", s, true));
  return a;
}

/// n samples at 1..4 MW, 60..300 s apart, about one in ten repeating the
/// previous time.
std::vector<Sample> random_channel(Rng& rng, std::size_t n) {
  std::vector<Sample> out;
  double t = kT0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.uniform() >= 0.1) {
      t += 60.0 * static_cast<double>(rng.uniform_int(1, 5));
    }
    out.push_back({SimTime(t), rng.uniform(1000.0, 4000.0)});
  }
  return out;
}

/// 1..6 breakpoints at 25..250 g/kWh on a grid a sixth of the channel span
/// apart, from half a span before the channel to half a span after it.
GridIntensitySeries random_curve(Rng& rng, double first, double last) {
  const double step = std::max(last - first, 60.0) / 6.0;
  std::vector<std::int64_t> grid;
  for (std::int64_t u = -3; u <= 9; ++u) grid.push_back(u);
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
  for (std::size_t i = 0; i < k; ++i) {  // partial Fisher-Yates
    std::swap(grid[i], grid[static_cast<std::size_t>(rng.uniform_int(
                           static_cast<std::int64_t>(i),
                           static_cast<std::int64_t>(grid.size()) - 1))]);
  }
  grid.resize(k);
  std::sort(grid.begin(), grid.end());
  GridIntensitySeries spec;
  for (const std::int64_t u : grid) {
    spec.points.emplace_back(first + step * static_cast<double>(u),
                             rng.uniform(25.0, 250.0));
  }
  return spec;
}

/// A request window: [start, end) in epoch seconds, or the whole channel
/// (no start/end members) when `whole` is set.
struct Window {
  bool whole = false;
  double start = 0.0;
  double end = 0.0;
};

JsonValue ask(const QueryEngine& engine, QueryRequest::Op op,
              const Window& w,
              const GridIntensitySeries* intensity = nullptr) {
  QueryRequest q;
  q.op = op;
  q.scenario = "s";
  q.channel = "cabinet_kw";
  if (!w.whole) {
    q.start = SimTime(w.start);
    q.end = SimTime(w.end);
  }
  if (intensity != nullptr) q.intensity = *intensity;
  return engine.evaluate(q);
}

constexpr auto kWhatIf = QueryRequest::Op::kWhatIf;
constexpr auto kWindowAggregate = QueryRequest::Op::kWindowAggregate;

struct Priced {
  EnergyKwh energy;
  CarbonMass scope2;
};

/// The per-interval loop QueryEngine::whatif ran before the prefix
/// column: every interval's trapezoid energy charged at the intensity at
/// its midpoint, both sums compensated.  O(n) per query.
Priced per_interval_reference(const StoredChannel& ch,
                              const GridIntensitySeries& intensity,
                              std::size_t first, std::size_t last) {
  CompensatedSum energy;
  CompensatedSum grams;
  for (std::size_t i = first; i + 1 < last; ++i) {
    const double dt = ch.times[i + 1] - ch.times[i];
    const EnergyKwh interval =
        PowerKw{0.5 * (ch.values[i] + ch.values[i + 1])} *
        Duration::seconds(dt);
    const double mid = 0.5 * (ch.times[i] + ch.times[i + 1]);
    energy.add(interval.kwh());
    grams.add((interval * intensity.at(SimTime(mid))).g());
  }
  return {EnergyKwh{energy.value()}, CarbonMass::grams(grams.value())};
}

void expect_within_bound(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), kRelBound * std::abs(want))
      << what << ": got " << got << ", want " << want;
}

// ---------------------------------------------------------------------------
// whatif against the per-interval reference.

TEST(WhatIfIndex, MatchesThePerIntervalReferenceOnSeededChannels) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(0x5EED0000ULL + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 400));
    ArtifactStore store;
    store.add(artifact_of("s", random_channel(rng, n)));
    MultiStore stores;
    stores.attach(store);
    const QueryEngine engine(stores);
    const StoredChannel& ch = *store.at("s").find_channel("cabinet_kw");
    const double first_t = ch.times.front();
    const double last_t = ch.times.back();

    for (int q = 0; q < 25; ++q) {
      GridIntensitySeries intensity = q % 5 == 0
                                          ? GridIntensitySeries{}
                                          : random_curve(rng, first_t, last_t);
      if (q % 5 == 0) {
        intensity.constant =
            CarbonIntensity::g_per_kwh(rng.uniform(25.0, 250.0));
      }
      // Windows from 2 samples up to the whole channel; the whole channel
      // also without start/end (which keeps the last sample).
      Window w;
      std::size_t first = 0;
      std::size_t last = n;
      if (q % 4 == 0) {
        w.whole = true;
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(i) + 2, static_cast<std::int64_t>(n)));
        w.start = ch.times[i];
        w.end = j < n ? ch.times[j] : last_t + 1.0;
        std::tie(first, last) =
            ArtifactStore::window_range(ch, SimTime(w.start), SimTime(w.end));
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q) + " samples [" + std::to_string(first) +
                   ", " + std::to_string(last) + ")");
      // Duplicate times can leave a window with no span (or one sample);
      // whatif rejects those.
      if (last < first + 2 || ch.times[last - 1] == ch.times[first]) {
        EXPECT_THROW((void)ask(engine, kWhatIf, w, &intensity),
                     InvalidArgument);
        continue;
      }
      const Priced ref = per_interval_reference(ch, intensity, first, last);
      const JsonValue r = ask(engine, kWhatIf, w, &intensity);
      expect_within_bound(r.at("energy_kwh").as_number(), ref.energy.kwh(),
                          "energy_kwh");
      expect_within_bound(r.at("scope2_tonnes").as_number(), ref.scope2.t(),
                          "scope2_tonnes");
    }
  }
}

// ---------------------------------------------------------------------------
// Metamorphic relations.

class WhatIfRelations : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0xA11CE);
    store_.add(artifact_of("s", random_channel(rng, 300)));
    stores_.attach(store_);
  }
  [[nodiscard]] const StoredChannel& channel() const {
    return *store_.at("s").find_channel("cabinet_kw");
  }
  /// A window from sample i to sample j's time (both in range).
  [[nodiscard]] Window samples(std::size_t i, std::size_t j) const {
    return {false, channel().times[i], channel().times[j]};
  }
  ArtifactStore store_;
  MultiStore stores_;
};

TEST_F(WhatIfRelations, EnergyEqualsWindowAggregateBitForBit) {
  const QueryEngine engine(stores_);
  GridIntensitySeries curve;
  curve.points = {{kT0, 40.0}, {kT0 + 20000.0, 200.0}};
  for (const Window& w : {samples(0, 299), samples(3, 5), samples(17, 211),
                          samples(64, 128), samples(150, 151)}) {
    const JsonValue agg = ask(engine, kWindowAggregate, w);
    if (agg.at("samples").as_number() < 2) continue;
    const JsonValue what = ask(engine, kWhatIf, w, &curve);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(what.at("energy_kwh").as_number()),
              std::bit_cast<std::uint64_t>(agg.at("energy_kwh").as_number()))
        << w.start << ".." << w.end;
  }
}

TEST_F(WhatIfRelations, ConstantIntensityIsExactlyCTimesEnergy) {
  const QueryEngine engine(stores_);
  for (const double c : {25.0, 38.0, 90.0, 237.5}) {
    GridIntensitySeries constant;
    constant.constant = CarbonIntensity::g_per_kwh(c);
    for (const Window& w : {Window{true}, samples(10, 250)}) {
      const JsonValue r = ask(engine, kWhatIf, w, &constant);
      const EnergyKwh energy{r.at("energy_kwh").as_number()};
      EXPECT_EQ(r.at("scope2_tonnes").as_number(),
                (energy * CarbonIntensity::g_per_kwh(c)).t())
          << c;
    }
  }
}

TEST_F(WhatIfRelations, ScalingTheCurveScalesScope2) {
  const QueryEngine engine(stores_);
  Rng rng(0xC0FFEE);
  for (int q = 0; q < 20; ++q) {
    const GridIntensitySeries curve =
        random_curve(rng, channel().times.front(), channel().times.back());
    GridIntensitySeries doubled = curve;
    for (auto& [t, g] : doubled.points) g *= 2.0;
    for (const Window& w : {Window{true}, samples(40, 260)}) {
      const double once = ask(engine, kWhatIf, w, &curve)
                              .at("scope2_tonnes")
                              .as_number();
      const double twice = ask(engine, kWhatIf, w, &doubled)
                               .at("scope2_tonnes")
                               .as_number();
      expect_within_bound(twice, 2.0 * once, "doubled curve");
    }
  }
}

TEST_F(WhatIfRelations, AdjacentWindowsAddUpWithTheStraddlingInterval) {
  const QueryEngine engine(stores_);
  const StoredChannel& ch = channel();
  Rng rng(0xADD);
  for (int q = 0; q < 20; ++q) {
    const GridIntensitySeries curve =
        random_curve(rng, ch.times.front(), ch.times.back());
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 100));
    const auto b = static_cast<std::size_t>(rng.uniform_int(110, 190));
    const auto c = static_cast<std::size_t>(rng.uniform_int(200, 299));
    const auto [first, mid] = ArtifactStore::window_range(
        ch, SimTime(ch.times[a]), SimTime(ch.times[b]));
    const auto [mid2, last] = ArtifactStore::window_range(
        ch, SimTime(ch.times[b]), SimTime(ch.times[c]));
    ASSERT_EQ(mid, mid2);
    ASSERT_GE(mid, first + 2);
    ASSERT_GE(last, mid + 2);
    const double whole = ask(engine, kWhatIf, samples(a, c), &curve)
                             .at("scope2_tonnes")
                             .as_number();
    const double left = ask(engine, kWhatIf, samples(a, b), &curve)
                            .at("scope2_tonnes")
                            .as_number();
    const double right = ask(engine, kWhatIf, samples(b, c), &curve)
                             .at("scope2_tonnes")
                             .as_number();
    // The one interval neither half covers: sample mid-1 to sample mid.
    const double straddle =
        per_interval_reference(ch, curve, mid - 1, mid + 1).scope2.t();
    expect_within_bound(left + right + straddle, whole, "additivity");
  }
}

// ---------------------------------------------------------------------------
// Block min/max index against a linear scan.

/// The scan window_aggregate ran before the block index.
std::pair<double, double> scan_min_max(const StoredChannel& ch,
                                       std::size_t first, std::size_t last) {
  double lo = ch.values[first];
  double hi = ch.values[first];
  for (std::size_t i = first + 1; i < last; ++i) {
    lo = std::min(lo, ch.values[i]);
    hi = std::max(hi, ch.values[i]);
  }
  return {lo, hi};
}

/// Distinct times 60 s apart, so sample indices map to windows exactly.
/// Values are mostly +-0.0 with some `other`: with other = 1 the zeros are
/// the minimum, with other = -1 the maximum, so ties, and which zero wins
/// them, are the common case.
std::vector<Sample> tie_heavy_channel(Rng& rng, std::size_t n, double other) {
  const double values[] = {0.0, -0.0, 0.0, -0.0, other};
  std::vector<Sample> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    out.push_back({SimTime(kT0 + 60.0 * static_cast<double>(i)), v});
  }
  return out;
}

void expect_scan_identical(const StoredChannel& ch, std::size_t first,
                           std::size_t last) {
  const double end_t = last < ch.times.size() ? ch.times[last]
                                              : ch.times.back() + 60.0;
  const double start_t =
      first < ch.times.size() ? ch.times[first] : ch.times.back() + 60.0;
  const WindowAggregate w =
      ArtifactStore::window_aggregate(ch, SimTime(start_t), SimTime(end_t));
  ASSERT_EQ(w.samples, last - first) << first << ".." << last;
  if (last == first) return;
  const auto [lo, hi] = scan_min_max(ch, first, last);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(w.min),
            std::bit_cast<std::uint64_t>(lo))
      << "min over [" << first << ", " << last << ")";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(w.max),
            std::bit_cast<std::uint64_t>(hi))
      << "max over [" << first << ", " << last << ")";
}

TEST(BlockMinMaxIndex, MatchesALinearScanBitForBit) {
  constexpr std::size_t kB = StoredChannel::kBlock;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, kB, 4 * kB,
                              5 * kB + 17}) {
    for (const double other : {1.0, -1.0}) {
      Rng rng(0xB10C + n);
      ArtifactStore store;
      store.add(artifact_of("s", tie_heavy_channel(rng, n, other)));
      const StoredChannel& ch = *store.at("s").find_channel("cabinet_kw");
      ASSERT_EQ(ch.block_min.size(), (n + kB - 1) / kB);
      SCOPED_TRACE("n " + std::to_string(n) + " other " +
                   std::to_string(other));

      // Block-edge starts and ends, 1-sample windows and empty windows.
      std::vector<std::size_t> edges;
      for (std::size_t e = 0; e <= n; e += kB) {
        for (const std::size_t d : {e, e + 1}) {
          if (d <= n) edges.push_back(d);
        }
        if (e > 0) edges.push_back(e - 1);
      }
      edges.push_back(n);
      for (const std::size_t first : edges) {
        for (const std::size_t last : edges) {
          if (first <= last) expect_scan_identical(ch, first, last);
        }
      }
      for (std::size_t i = 0; i < n; ++i) expect_scan_identical(ch, i, i + 1);
      // Seeded windows, a share of them shorter than a block.
      for (int q = 0; q < 200; ++q) {
        const auto first = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n)));
        const std::size_t span =
            q % 2 == 0 ? static_cast<std::size_t>(rng.uniform_int(0, kB - 1))
                       : static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(n)));
        expect_scan_identical(ch, first, std::min(n, first + span));
      }
    }
  }
}

TEST(BlockMinMaxIndex, KeepsTheFirstZeroOfATieAcrossBlocks) {
  constexpr std::size_t kB = StoredChannel::kBlock;
  // Block 0 holds `fill`; the zeros start at block 1 with `lead`, then
  // the other zero.  With fill = 1 the zeros tie for the minimum, with
  // fill = -1 for the maximum; either way the scan keeps `lead`, and so
  // must block 1's index entry.
  for (const double fill : {1.0, -1.0}) {
    for (const double lead : {-0.0, 0.0}) {
      std::vector<Sample> samples;
      for (std::size_t i = 0; i < 3 * kB; ++i) {
        const double v = i < kB ? fill : (i == kB ? lead : -lead);
        samples.push_back({SimTime(kT0 + 60.0 * static_cast<double>(i)), v});
      }
      ArtifactStore store;
      store.add(artifact_of("s", samples));
      const StoredChannel& ch = *store.at("s").find_channel("cabinet_kw");
      const WindowAggregate w = ArtifactStore::window_aggregate(
          ch, SimTime(kT0), SimTime(kT0 + 1e6));
      const double tied = fill > 0.0 ? w.min : w.max;
      EXPECT_EQ(std::signbit(tied), std::signbit(lead)) << fill;
      // From the zeros' second sample on, the other zero leads.
      const WindowAggregate rest = ArtifactStore::window_aggregate(
          ch, SimTime(kT0 + 60.0 * (kB + 1)), SimTime(kT0 + 1e6));
      EXPECT_NE(std::signbit(rest.min), std::signbit(lead)) << fill;
      EXPECT_NE(std::signbit(rest.max), std::signbit(lead)) << fill;
    }
  }
}

TEST(BlockMinMaxIndex, OnlyKwChannelsCarryTheMomentColumn) {
  Rng rng(1);
  RunArtifact a = artifact_of("s", tie_heavy_channel(rng, 10, 1.0));
  TimeSeries util("fraction");
  util.append(SimTime(kT0), 0.5);
  util.append(SimTime(kT0 + 60.0), 0.7);
  a.channels.push_back(aggregate_channel("utilisation", util, true));
  ArtifactStore store;
  store.add(a);
  const StoredScenario& s = store.at("s");
  EXPECT_EQ(s.find_channel("cabinet_kw")->prefix_moment.size(), 11u);
  EXPECT_TRUE(s.find_channel("utilisation")->prefix_moment.empty());
  EXPECT_EQ(s.find_channel("utilisation")->block_min.size(), 1u);
}

}  // namespace
}  // namespace hpcem::serve
