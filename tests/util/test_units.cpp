// Unit tests for the dimensioned-quantity layer (util/units.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <type_traits>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace hpcem {
namespace {

using namespace hpcem::literals;

template <class A, class B>
concept Multipliable = requires(A a, B b) { a * b; };

template <class A, class B>
concept Accumulable = requires(A a, B b) { a += b; };

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Units, PowerConversionsRoundTrip) {
  const Power p = Power::kilowatts(3.22);
  EXPECT_DOUBLE_EQ(p.w(), 3220.0);
  EXPECT_DOUBLE_EQ(p.kw(), 3.22);
  EXPECT_DOUBLE_EQ(p.mw(), 0.00322);
  EXPECT_DOUBLE_EQ(Power::megawatts(3.22).kw(), 3220.0);
}

TEST(Units, EnergyConversionsRoundTrip) {
  const Energy e = Energy::kwh(1.0);
  EXPECT_DOUBLE_EQ(e.j(), 3.6e6);
  EXPECT_DOUBLE_EQ(e.to_kwh(), 1.0);
  EXPECT_DOUBLE_EQ(Energy::mwh(2.0).to_kwh(), 2000.0);
  EXPECT_DOUBLE_EQ(Energy::kilojoules(3600.0).to_kwh(), 1.0);
}

TEST(Units, DurationConversions) {
  EXPECT_DOUBLE_EQ(Duration::hours(1.0).sec(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::days(1.0).hrs(), 24.0);
  EXPECT_DOUBLE_EQ(Duration::minutes(30.0).hrs(), 0.5);
  EXPECT_DOUBLE_EQ(Duration::seconds(86400.0).day(), 1.0);
}

TEST(Units, PowerTimesDurationIsEnergy) {
  const Energy e = Power::kilowatts(1.0) * Duration::hours(1.0);
  EXPECT_DOUBLE_EQ(e.to_kwh(), 1.0);
  // Commutativity.
  const Energy e2 = Duration::hours(1.0) * Power::kilowatts(1.0);
  EXPECT_DOUBLE_EQ(e2.to_kwh(), 1.0);
}

TEST(Units, EnergyDividedByDurationIsPower) {
  const Power p = Energy::kwh(2.0) / Duration::hours(4.0);
  EXPECT_DOUBLE_EQ(p.w(), 500.0);
}

TEST(Units, EnergyDividedByPowerIsDuration) {
  const Duration d = Energy::kwh(1.0) / Power::watts(1000.0);
  EXPECT_DOUBLE_EQ(d.hrs(), 1.0);
}

TEST(Units, EnergyTimesIntensityIsCarbonMass) {
  const CarbonMass m = Energy::mwh(1.0) * CarbonIntensity::g_per_kwh(200.0);
  EXPECT_DOUBLE_EQ(m.kg(), 200.0);
  const CarbonMass m2 = CarbonIntensity::g_per_kwh(200.0) * Energy::mwh(1.0);
  EXPECT_DOUBLE_EQ(m2.kg(), 200.0);
}

TEST(Units, EnergyTimesPriceIsCost) {
  const Cost c = Energy::kwh(100.0) * Price::gbp_per_kwh(0.25);
  EXPECT_DOUBLE_EQ(c.pounds(), 25.0);
}

TEST(Units, ArithmeticWithinDimension) {
  Power p = Power::watts(100.0) + Power::watts(50.0);
  EXPECT_DOUBLE_EQ(p.w(), 150.0);
  p -= Power::watts(25.0);
  EXPECT_DOUBLE_EQ(p.w(), 125.0);
  p *= 2.0;
  EXPECT_DOUBLE_EQ(p.w(), 250.0);
  EXPECT_DOUBLE_EQ((-p).w(), -250.0);
  EXPECT_DOUBLE_EQ((p / 2.0).w(), 125.0);
  EXPECT_DOUBLE_EQ(Power::watts(300.0) / Power::watts(100.0), 3.0);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Power::watts(1.0), Power::watts(2.0));
  EXPECT_GE(Energy::kwh(2.0), Energy::kwh(2.0));
  EXPECT_EQ(Duration::hours(1.0), Duration::minutes(60.0));
  EXPECT_NE(Frequency::ghz(2.0), Frequency::ghz(2.25));
}

TEST(Units, UserDefinedLiterals) {
  EXPECT_DOUBLE_EQ((3.22_MW).kw(), 3220.0);
  EXPECT_DOUBLE_EQ((2.0_GHz).to_ghz(), 2.0);
  EXPECT_DOUBLE_EQ((1.5_h).min(), 90.0);
  EXPECT_DOUBLE_EQ((200.0_gCO2kWh).gkwh(), 200.0);
  EXPECT_DOUBLE_EQ((1.0_MWh).to_kwh(), 1000.0);
  EXPECT_DOUBLE_EQ((2.0_d).hrs(), 48.0);
}

TEST(Units, StreamOutput) {
  std::ostringstream os;
  os << Power::kilowatts(3.0) << ", " << Frequency::ghz(2.25);
  EXPECT_EQ(os.str(), "3 kW, 2.25 GHz");
}

TEST(Units, CarbonMassConversions) {
  EXPECT_DOUBLE_EQ(CarbonMass::tonnes(1.0).kg(), 1000.0);
  EXPECT_DOUBLE_EQ(CarbonMass::kilograms(500.0).t(), 0.5);
  EXPECT_DOUBLE_EQ(CarbonMass::grams(1e6).t(), 1.0);
}

TEST(Units, ScalarScalingBothSides) {
  EXPECT_DOUBLE_EQ((2.0 * Power::watts(10.0)).w(), 20.0);
  EXPECT_DOUBLE_EQ((Power::watts(10.0) * 2.0).w(), 20.0);
}

TEST(Units, PowerKwIsNotEnergyKwh) {
  // A kW figure becomes kWh only through a Duration.
  static_assert(!std::is_convertible_v<PowerKw, EnergyKwh>);
  static_assert(!std::is_constructible_v<EnergyKwh, PowerKw>);
  static_assert(!std::is_convertible_v<EnergyKwh, PowerKw>);
  static_assert(!std::is_convertible_v<double, PowerKw>);
  static_assert(!std::is_convertible_v<double, EnergyKwh>);
  EXPECT_DOUBLE_EQ((PowerKw{3220.0} / PowerKw{3010.0}), 3220.0 / 3010.0);
}

TEST(Units, PowerKwTimesDurationIsEnergyKwh) {
  static_assert(
      std::is_same_v<decltype(PowerKw{} * Duration{}), EnergyKwh>);
  const EnergyKwh e = PowerKw{3220.0} * Duration::hours(2.0);
  EXPECT_DOUBLE_EQ(e.kwh(), 6440.0);
  EXPECT_DOUBLE_EQ(e.to_energy().to_kwh(), 6440.0);
}

TEST(Units, IntensityAppliesToEnergyKwhNotPowerKw) {
  static_assert(!Multipliable<PowerKw, CarbonIntensity>);
  static_assert(!Multipliable<CarbonIntensity, PowerKw>);
  static_assert(!Multipliable<PowerKw, Price>);
  static_assert(!Multipliable<PowerKw, PowerKw>);
  const CarbonMass m = EnergyKwh{1000.0} * 200.0_gCO2kWh;
  EXPECT_DOUBLE_EQ(m.kg(), 200.0);
}

TEST(Units, KwAndKwhDoNotAccumulateIntoEachOther) {
  static_assert(!Accumulable<EnergyKwh, PowerKw>);
  static_assert(!Accumulable<PowerKw, EnergyKwh>);
  static_assert(!Accumulable<PowerKw, Power>);
  static_assert(!Accumulable<EnergyKwh, Energy>);
  EnergyKwh total;
  total += PowerKw{100.0} * Duration::hours(0.5);
  total += EnergyKwh{25.0};
  EXPECT_DOUBLE_EQ(total.kwh(), 75.0);
}

TEST(Units, PowerKwConvertsToPowerOnlyExplicitly) {
  static_assert(!std::is_convertible_v<PowerKw, Power>);
  static_assert(!std::is_convertible_v<Power, PowerKw>);
  static_assert(!std::is_convertible_v<EnergyKwh, Energy>);
  EXPECT_DOUBLE_EQ(PowerKw{3.22}.to_power().w(), 3220.0);
  EXPECT_DOUBLE_EQ(EnergyKwh{1.0}.to_energy().j(), 3.6e6);
  std::ostringstream os;
  os << PowerKw{3220.0} << ", " << EnergyKwh{6440.0};
  EXPECT_EQ(os.str(), "3220 kW, 6440 kWh");
}

// The scaled types exist so reported figures keep their bits: each
// operator must evaluate exactly the raw-double expression it replaced.
TEST(Units, ScaledTypesEvaluateTheRawExpressionsBitExactly) {
  Rng rng(20230509);
  for (int i = 0; i < 20000; ++i) {
    const double kw = rng.uniform(0.0, 5000.0);
    const double dt = rng.uniform(1.0, 86400.0);
    const double gkwh = rng.uniform(0.0, 500.0);
    const double kwh = rng.uniform(0.0, 5000.0) * dt / 3600.0;
    ASSERT_EQ(bits((PowerKw{kw} * Duration::seconds(dt)).kwh()),
              bits(kw * dt / 3600.0))
        << "kw " << kw << " dt " << dt;
    ASSERT_EQ(bits((EnergyKwh{kwh} * CarbonIntensity::g_per_kwh(gkwh)).g()),
              bits(kwh * gkwh))
        << "kwh " << kwh << " gkwh " << gkwh;
    ASSERT_EQ(bits(PowerKw{kw}.to_power().w()),
              bits(Power::kilowatts(kw).w()))
        << "kw " << kw;
  }
}

}  // namespace
}  // namespace hpcem
