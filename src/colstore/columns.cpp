#include "colstore/columns.hpp"

#include "util/stats.hpp"

namespace hpcem::colstore {

PrefixSums build_prefix_sums(std::span<const double> times,
                             std::span<const double> values) {
  PrefixSums p;
  const std::size_t n = values.size();
  if (n == 0) return p;

  p.value_sum.reserve(n + 1);
  p.integral.reserve(n + 1);
  // Compensated prefix accumulators: windowed sums are differences of
  // prefixes, so per-element drift would surface directly in responses.
  CompensatedSum value_sum;
  CompensatedSum integral;
  p.value_sum.push_back(0.0);
  p.integral.push_back(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      integral.add(0.5 * (values[i] + values[i - 1]) *
                   (times[i] - times[i - 1]));
    }
    value_sum.add(values[i]);
    p.value_sum.push_back(value_sum.value());
    p.integral.push_back(integral.value());
  }
  return p;
}

}  // namespace hpcem::colstore
