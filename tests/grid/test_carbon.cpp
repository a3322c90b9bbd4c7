// Tests for the carbon-intensity model and regime classification.
#include <gtest/gtest.h>

#include "grid/carbon.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(Regimes, PaperBoundaries) {
  using CI = CarbonIntensity;
  EXPECT_EQ(classify_regime(CI::g_per_kwh(0.0)),
            EmissionsRegime::kEmbodiedDominated);
  EXPECT_EQ(classify_regime(CI::g_per_kwh(29.9)),
            EmissionsRegime::kEmbodiedDominated);
  EXPECT_EQ(classify_regime(CI::g_per_kwh(30.0)),
            EmissionsRegime::kBalanced);
  EXPECT_EQ(classify_regime(CI::g_per_kwh(100.0)),
            EmissionsRegime::kBalanced);
  EXPECT_EQ(classify_regime(CI::g_per_kwh(100.1)),
            EmissionsRegime::kOperationalDominated);
  EXPECT_EQ(classify_regime(CI::g_per_kwh(300.0)),
            EmissionsRegime::kOperationalDominated);
  EXPECT_THROW(classify_regime(CI::g_per_kwh(-1.0)), InvalidArgument);
}

TEST(Regimes, Labels) {
  EXPECT_NE(to_string(EmissionsRegime::kEmbodiedDominated).find("<30"),
            std::string::npos);
  EXPECT_NE(to_string(EmissionsRegime::kBalanced).find("30-100"),
            std::string::npos);
  EXPECT_NE(
      to_string(EmissionsRegime::kOperationalDominated).find(">100"),
      std::string::npos);
}

class SyntheticIntensity : public ::testing::Test {
 protected:
  SimTime start_ = sim_time_from_date({2022, 1, 1});
  SimTime end_ = sim_time_from_date({2023, 1, 1});
  TimeSeries series_ = synthetic_carbon_intensity(CarbonIntensityParams{},
                                                  start_, end_, Rng(42));
};

TEST_F(SyntheticIntensity, CoversWindowAtConfiguredStep) {
  // Half-hourly over a year.
  EXPECT_EQ(series_.size(), 365u * 48u);
  EXPECT_DOUBLE_EQ(series_.start_time().sec(), start_.sec());
}

TEST_F(SyntheticIntensity, MeanNearConfigured) {
  EXPECT_NEAR(series_.mean(), 200.0, 25.0);
}

TEST_F(SyntheticIntensity, RespectsFloor) {
  for (const auto& s : series_.samples()) {
    ASSERT_GE(s.value, 15.0);
  }
}

TEST_F(SyntheticIntensity, WinterDirtierThanSummer) {
  const double winter = series_.mean_over(
      sim_time_from_date({2022, 1, 1}), sim_time_from_date({2022, 2, 1}));
  const double summer = series_.mean_over(
      sim_time_from_date({2022, 7, 1}), sim_time_from_date({2022, 8, 1}));
  EXPECT_GT(winter, summer + 30.0);
}

TEST_F(SyntheticIntensity, EveningDirtierThanNight) {
  // Average the 18:00 samples vs the 04:00 samples over the year.
  double evening = 0.0, night = 0.0;
  std::size_t n_e = 0, n_n = 0;
  for (const auto& s : series_.samples()) {
    const double hour = seconds_into_day(s.time) / 3600.0;
    if (hour == 18.0) {
      evening += s.value;
      ++n_e;
    } else if (hour == 4.0) {
      night += s.value;
      ++n_n;
    }
  }
  ASSERT_GT(n_e, 300u);
  ASSERT_GT(n_n, 300u);
  EXPECT_GT(evening / static_cast<double>(n_e),
            night / static_cast<double>(n_n) + 20.0);
}

TEST_F(SyntheticIntensity, DeterministicForSeed) {
  const TimeSeries again = synthetic_carbon_intensity(
      CarbonIntensityParams{}, start_, end_, Rng(42));
  ASSERT_EQ(again.size(), series_.size());
  for (std::size_t i = 0; i < again.size(); i += 997) {
    ASSERT_DOUBLE_EQ(again[i].value, series_[i].value);
  }
}

TEST_F(SyntheticIntensity, SeriesWrapperInterpolatesAndClassifies) {
  const CarbonIntensitySeries ci(series_);
  const SimTime mid = sim_time_from_date({2022, 6, 15});
  EXPECT_GT(ci.at(mid).gkwh(), 0.0);
  EXPECT_NO_THROW((void)classify_regime(ci.at(mid)));
  EXPECT_NEAR(ci.mean(start_, end_).gkwh(), 200.0, 25.0);
}

TEST(CarbonSeries, EmissionsOfConstantPowerSeries) {
  // 1000 kW for 10 hours at a constant 100 g/kWh -> 1 tCO2e.
  TimeSeries intensity("gCO2/kWh");
  TimeSeries power("kW");
  const SimTime t0 = sim_time_from_date({2022, 3, 1});
  for (int h = 0; h <= 10; ++h) {
    intensity.append(t0 + Duration::hours(h), 100.0);
    power.append(t0 + Duration::hours(h), 1000.0);
  }
  const CarbonIntensitySeries ci(intensity);
  EXPECT_NEAR(ci.emissions_of(power).t(), 1.0, 1e-9);
}

TEST(CarbonSeries, EmptySeriesRejected) {
  EXPECT_THROW(CarbonIntensitySeries(TimeSeries{}), InvalidArgument);
  TimeSeries one("gCO2/kWh");
  one.append(SimTime(0.0), 100.0);
  const CarbonIntensitySeries ci(one);
  TimeSeries power("kW");
  power.append(SimTime(0.0), 1.0);
  EXPECT_THROW(ci.emissions_of(power), InvalidArgument);
}

TEST(PriceModel, WinterMultiplierApplied) {
  const PriceModel p;
  EXPECT_NEAR(p.at(sim_time_from_date({2022, 12, 15})).gbp_kwh(),
              0.25 * 1.5, 1e-12);
  EXPECT_NEAR(p.at(sim_time_from_date({2022, 6, 15})).gbp_kwh(), 0.25,
              1e-12);
  EXPECT_NEAR(p.at(sim_time_from_date({2022, 2, 15})).gbp_kwh(),
              0.25 * 1.5, 1e-12);
}

TEST(PriceModel, CostOfConstantSummerDraw) {
  TimeSeries power("kW");
  const SimTime t0 = sim_time_from_date({2022, 6, 1});
  for (int h = 0; h <= 100; ++h) {
    power.append(t0 + Duration::hours(h), 3000.0);
  }
  const PriceModel p;
  // 3000 kW * 100 h * 0.25 GBP/kWh.
  EXPECT_NEAR(p.cost_of(power).pounds(), 75000.0, 1.0);
}

}  // namespace
}  // namespace hpcem
