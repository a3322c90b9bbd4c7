// Strongly-typed physical quantities used throughout hpcem.
//
// The facility model mixes watts, kilowatt-hours, gCO2/kWh, GHz and pounds
// sterling; mixing those up silently is the classic failure mode of energy
// accounting code, so each dimension gets its own vocabulary type.  The
// wrapper is a zero-overhead `double` with dimension-preserving arithmetic:
//   Power * Duration  -> Energy
//   PowerKw * Duration -> EnergyKwh
//   Energy * CarbonIntensity -> CarbonMass
//   EnergyKwh * CarbonIntensity -> CarbonMass
//   Energy * Price    -> Cost
// plus scalar scaling and comparisons within a dimension.
#pragma once

#include <chrono>
#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>

namespace hpcem {

/// CRTP base giving a dimensioned quantity value semantics, arithmetic within
/// the dimension and scalar scaling.  `Derived` supplies the unit helpers.
template <class Derived>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  /// Raw magnitude in the dimension's base unit (documented per type).
  [[nodiscard]] constexpr double raw() const { return value_; }

  friend constexpr Derived operator+(Derived a, Derived b) {
    return Derived{a.value_ + b.value_};
  }
  friend constexpr Derived operator-(Derived a, Derived b) {
    return Derived{a.value_ - b.value_};
  }
  constexpr Derived operator-() const { return Derived{-value_}; }
  friend constexpr Derived operator*(Derived a, double s) {
    return Derived{a.value_ * s};
  }
  friend constexpr Derived operator*(double s, Derived a) {
    return Derived{a.value_ * s};
  }
  friend constexpr Derived operator/(Derived a, double s) {
    return Derived{a.value_ / s};
  }
  /// Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Derived a, Derived b) {
    return a.value_ / b.value_;
  }
  friend constexpr auto operator<=>(Derived a, Derived b) {
    return a.value_ <=> b.value_;
  }
  friend constexpr bool operator==(Derived a, Derived b) {
    return a.value_ == b.value_;
  }
  Derived& operator+=(Derived o) {
    value_ += o.value_;
    return static_cast<Derived&>(*this);
  }
  Derived& operator-=(Derived o) {
    value_ -= o.value_;
    return static_cast<Derived&>(*this);
  }
  Derived& operator*=(double s) {
    value_ *= s;
    return static_cast<Derived&>(*this);
  }

 protected:
  double value_ = 0.0;
};

/// Simulated wall-clock duration.  Base unit: seconds.
class Duration : public Quantity<Duration> {
 public:
  using Quantity::Quantity;
  static constexpr Duration seconds(double s) { return Duration{s}; }
  static constexpr Duration minutes(double m) { return Duration{m * 60.0}; }
  static constexpr Duration hours(double h) { return Duration{h * 3600.0}; }
  static constexpr Duration days(double d) { return Duration{d * 86400.0}; }
  [[nodiscard]] constexpr double sec() const { return value_; }
  [[nodiscard]] constexpr double min() const { return value_ / 60.0; }
  [[nodiscard]] constexpr double hrs() const { return value_ / 3600.0; }
  [[nodiscard]] constexpr double day() const { return value_ / 86400.0; }
};

/// Electrical power.  Base unit: watts.
class Power : public Quantity<Power> {
 public:
  using Quantity::Quantity;
  static constexpr Power watts(double w) { return Power{w}; }
  static constexpr Power kilowatts(double kw) { return Power{kw * 1e3}; }
  static constexpr Power megawatts(double mw) { return Power{mw * 1e6}; }
  [[nodiscard]] constexpr double w() const { return value_; }
  [[nodiscard]] constexpr double kw() const { return value_ / 1e3; }
  [[nodiscard]] constexpr double mw() const { return value_ / 1e6; }
};

/// Electrical power held in kilowatts, the unit of every reported mean
/// (run headlines, timelines, conclusions).  A kW figure stored in Power's
/// watts would round-trip as `kw * 1e3 / 1e3`, which is not bit-exact, so
/// the scale is part of the type.  Converts to Power only explicitly.
class PowerKw : public Quantity<PowerKw> {
 public:
  using Quantity::Quantity;
  [[nodiscard]] constexpr double kw() const { return value_; }
  [[nodiscard]] constexpr Power to_power() const {
    return Power::kilowatts(value_);
  }
};

/// Electrical energy.  Base unit: joules.
class Energy : public Quantity<Energy> {
 public:
  using Quantity::Quantity;
  static constexpr Energy joules(double j) { return Energy{j}; }
  static constexpr Energy kilojoules(double kj) { return Energy{kj * 1e3}; }
  static constexpr Energy kwh(double k) { return Energy{k * 3.6e6}; }
  static constexpr Energy mwh(double m) { return Energy{m * 3.6e9}; }
  [[nodiscard]] constexpr double j() const { return value_; }
  [[nodiscard]] constexpr double to_kwh() const { return value_ / 3.6e6; }
  [[nodiscard]] constexpr double to_mwh() const { return value_ / 3.6e9; }
};

/// Electrical energy held in kilowatt-hours, the unit of reported window
/// energy; the kWh counterpart of PowerKw.  Converts to Energy only
/// explicitly.
class EnergyKwh : public Quantity<EnergyKwh> {
 public:
  using Quantity::Quantity;
  [[nodiscard]] constexpr double kwh() const { return value_; }
  [[nodiscard]] constexpr Energy to_energy() const {
    return Energy::kwh(value_);
  }
};

/// Mass of CO2-equivalent emissions.  Base unit: grams.
class CarbonMass : public Quantity<CarbonMass> {
 public:
  using Quantity::Quantity;
  static constexpr CarbonMass grams(double g) { return CarbonMass{g}; }
  static constexpr CarbonMass kilograms(double kg) {
    return CarbonMass{kg * 1e3};
  }
  static constexpr CarbonMass tonnes(double t) { return CarbonMass{t * 1e6}; }
  [[nodiscard]] constexpr double g() const { return value_; }
  [[nodiscard]] constexpr double kg() const { return value_ / 1e3; }
  [[nodiscard]] constexpr double t() const { return value_ / 1e6; }
};

/// Carbon intensity of electricity.  Base unit: gCO2 per kWh.
class CarbonIntensity : public Quantity<CarbonIntensity> {
 public:
  using Quantity::Quantity;
  static constexpr CarbonIntensity g_per_kwh(double g) {
    return CarbonIntensity{g};
  }
  [[nodiscard]] constexpr double gkwh() const { return value_; }
};

/// Monetary cost.  Base unit: GBP.
class Cost : public Quantity<Cost> {
 public:
  using Quantity::Quantity;
  static constexpr Cost gbp(double v) { return Cost{v}; }
  [[nodiscard]] constexpr double pounds() const { return value_; }
};

/// Electricity price.  Base unit: GBP per kWh.
class Price : public Quantity<Price> {
 public:
  using Quantity::Quantity;
  static constexpr Price gbp_per_kwh(double v) { return Price{v}; }
  [[nodiscard]] constexpr double gbp_kwh() const { return value_; }
};

/// CPU clock frequency.  Base unit: hertz.
class Frequency : public Quantity<Frequency> {
 public:
  using Quantity::Quantity;
  static constexpr Frequency hz(double v) { return Frequency{v}; }
  static constexpr Frequency mhz(double v) { return Frequency{v * 1e6}; }
  static constexpr Frequency ghz(double v) { return Frequency{v * 1e9}; }
  [[nodiscard]] constexpr double to_hz() const { return value_; }
  [[nodiscard]] constexpr double to_ghz() const { return value_ / 1e9; }
};

// ---------------------------------------------------------------------------
// Cross-dimension arithmetic.
// ---------------------------------------------------------------------------

/// Power sustained over a duration yields energy.
constexpr Energy operator*(Power p, Duration d) {
  return Energy::joules(p.w() * d.sec());
}
constexpr Energy operator*(Duration d, Power p) { return p * d; }

/// Average power of an energy spread over a duration.
constexpr Power operator/(Energy e, Duration d) {
  return Power::watts(e.j() / d.sec());
}

/// Time to expend an energy budget at a constant power draw.
constexpr Duration operator/(Energy e, Power p) {
  return Duration::seconds(e.j() / p.w());
}

/// Scope-2 emissions: energy consumed at a given grid carbon intensity.
constexpr CarbonMass operator*(Energy e, CarbonIntensity ci) {
  return CarbonMass::grams(e.to_kwh() * ci.gkwh());
}
constexpr CarbonMass operator*(CarbonIntensity ci, Energy e) { return e * ci; }

/// kW sustained over a duration yields kWh: `kw * seconds / 3600`.
constexpr EnergyKwh operator*(PowerKw p, Duration d) {
  return EnergyKwh{p.kw() * d.sec() / 3600.0};
}

/// Scope-2 emissions of a kWh figure: `kwh * gCO2/kWh` grams.
constexpr CarbonMass operator*(EnergyKwh e, CarbonIntensity ci) {
  return CarbonMass::grams(e.kwh() * ci.gkwh());
}

/// Electricity cost of an energy amount at a given price.
constexpr Cost operator*(Energy e, Price p) {
  return Cost::gbp(e.to_kwh() * p.gbp_kwh());
}
constexpr Cost operator*(Price p, Energy e) { return e * p; }

// ---------------------------------------------------------------------------
// User-defined literals (in namespace hpcem::literals).
// ---------------------------------------------------------------------------
namespace literals {
constexpr Power operator""_W(long double v) {
  return Power::watts(static_cast<double>(v));
}
constexpr Power operator""_kW(long double v) {
  return Power::kilowatts(static_cast<double>(v));
}
constexpr Power operator""_MW(long double v) {
  return Power::megawatts(static_cast<double>(v));
}
constexpr Energy operator""_kWh(long double v) {
  return Energy::kwh(static_cast<double>(v));
}
constexpr Energy operator""_MWh(long double v) {
  return Energy::mwh(static_cast<double>(v));
}
constexpr Duration operator""_s(long double v) {
  return Duration::seconds(static_cast<double>(v));
}
constexpr Duration operator""_min(long double v) {
  return Duration::minutes(static_cast<double>(v));
}
constexpr Duration operator""_h(long double v) {
  return Duration::hours(static_cast<double>(v));
}
constexpr Duration operator""_d(long double v) {
  return Duration::days(static_cast<double>(v));
}
constexpr Frequency operator""_GHz(long double v) {
  return Frequency::ghz(static_cast<double>(v));
}
constexpr CarbonIntensity operator""_gCO2kWh(long double v) {
  return CarbonIntensity::g_per_kwh(static_cast<double>(v));
}
}  // namespace literals

inline std::ostream& operator<<(std::ostream& os, Power p) {
  return os << p.kw() << " kW";
}
inline std::ostream& operator<<(std::ostream& os, PowerKw p) {
  return os << p.kw() << " kW";
}
inline std::ostream& operator<<(std::ostream& os, Energy e) {
  return os << e.to_kwh() << " kWh";
}
inline std::ostream& operator<<(std::ostream& os, EnergyKwh e) {
  return os << e.kwh() << " kWh";
}
inline std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.sec() << " s";
}
inline std::ostream& operator<<(std::ostream& os, CarbonMass m) {
  return os << m.t() << " tCO2e";
}
inline std::ostream& operator<<(std::ostream& os, Frequency f) {
  return os << f.to_ghz() << " GHz";
}

}  // namespace hpcem
