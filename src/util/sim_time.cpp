#include "util/sim_time.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace hpcem {

namespace {
constexpr std::array<const char*, 12> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

constexpr std::array<int, 12> kDaysInMonth = {31, 28, 31, 30, 31, 30,
                                              31, 31, 30, 31, 30, 31};
}  // namespace

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

std::int64_t days_from_civil(const CivilDate& d) {
  require(d.month >= 1 && d.month <= 12, "days_from_civil: month out of range");
  int dim = kDaysInMonth[static_cast<std::size_t>(d.month - 1)];
  if (d.month == 2 && is_leap_year(d.year)) dim = 29;
  require(d.day >= 1 && d.day <= dim, "days_from_civil: day out of range");

  // Hinnant's algorithm: shift the year so March is month 0 of the era.
  const int y = d.year - (d.month <= 2 ? 1 : 0);
  const std::int64_t era =
      (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<std::uint64_t>(y - static_cast<int>(era) * 400);
  const auto doy = static_cast<std::uint64_t>(
      (153 * (d.month + (d.month > 2 ? -3 : 9)) + 2) / 5 + d.day - 1);
  const std::uint64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDate civil_from_days(std::int64_t z) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<std::uint64_t>(z - era * 146097);
  const std::uint64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const std::uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::uint64_t mp = (5 * doy + 2) / 153;
  const std::uint64_t day = doy - (153 * mp + 2) / 5 + 1;
  const std::uint64_t month = mp < 10 ? mp + 3 : mp - 9;
  CivilDate d;
  d.year = static_cast<int>(y + (month <= 2 ? 1 : 0));
  d.month = static_cast<int>(month);
  d.day = static_cast<int>(day);
  return d;
}

SimTime sim_time_from_date(const CivilDate& d) {
  return SimTime{static_cast<double>(days_from_civil(d)) * 86400.0};
}

CivilDate date_from_sim_time(SimTime t) {
  // Clamped so that an absurd epoch (1e300 read from a damaged artifact)
  // cannot overflow the integer day count; real dates are far inside.
  const double days = std::clamp(std::floor(t.sec() / 86400.0), -1e15, 1e15);
  return civil_from_days(static_cast<std::int64_t>(days));
}

double seconds_into_day(SimTime t) {
  const double day = std::floor(t.sec() / 86400.0) * 86400.0;
  return t.sec() - day;
}

int day_of_week(SimTime t) {
  const auto days =
      static_cast<std::int64_t>(std::floor(t.sec() / 86400.0));
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  const std::int64_t dow = (days % 7 + 7 + 3) % 7;
  return static_cast<int>(dow);
}

int day_of_year(const CivilDate& d) {
  return static_cast<int>(days_from_civil(d) -
                          days_from_civil({d.year, 1, 1})) +
         1;
}

std::string month_abbrev(int month) {
  require(month >= 1 && month <= 12, "month_abbrev: month out of range");
  return kMonthNames[static_cast<std::size_t>(month - 1)];
}

std::string month_year_label(const CivilDate& d) {
  return month_abbrev(d.month) + " " + std::to_string(d.year);
}

std::string iso_date(const CivilDate& d) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

std::optional<SimTime> parse_date_time(std::string_view s) {
  const auto digits = [&s](std::size_t pos, std::size_t n,
                           int& out) -> bool {
    if (pos + n > s.size()) return false;
    int v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const char c = s[pos + i];
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
    }
    out = v;
    return true;
  };

  int year = 0, month = 0, day = 0;
  if (!digits(0, 4, year) || s.size() < 10 || s[4] != '-' ||
      !digits(5, 2, month) || s[7] != '-' || !digits(8, 2, day)) {
    return std::nullopt;
  }

  int hh = 0, mm = 0, ss = 0;
  if (s.size() != 10) {
    if (s.size() != 16 && s.size() != 19) return std::nullopt;
    if (s[10] != ' ' && s[10] != 'T') return std::nullopt;
    if (!digits(11, 2, hh) || s[13] != ':' || !digits(14, 2, mm)) {
      return std::nullopt;
    }
    if (s.size() == 19 && (s[16] != ':' || !digits(17, 2, ss))) {
      return std::nullopt;
    }
  }

  if (month < 1 || month > 12) return std::nullopt;
  int dim = kDaysInMonth[static_cast<std::size_t>(month - 1)];
  if (month == 2 && is_leap_year(year)) dim = 29;
  if (day < 1 || day > dim) return std::nullopt;
  if (hh > 23 || mm > 59 || ss > 59) return std::nullopt;

  return sim_time_from_date({year, month, day}) + Duration::hours(hh) +
         Duration::minutes(mm) + Duration::seconds(ss);
}

std::string iso_date_time(SimTime t) {
  const CivilDate d = date_from_sim_time(t);
  // In [0, 86400) for every representable day; the clamp only matters
  // where the epoch is too large for a day boundary to be exact.
  const double s = std::clamp(seconds_into_day(t), 0.0, 86399.0);
  const int hh = static_cast<int>(s / 3600.0);
  const int mm = static_cast<int>((s - hh * 3600.0) / 60.0);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d %02d:%02d", d.year, d.month,
                d.day, hh, mm);
  return buf;
}

}  // namespace hpcem
