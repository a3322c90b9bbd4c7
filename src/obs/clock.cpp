// The one wall-clock read in the tree (see registry.hpp).  Observability
// measures real elapsed time; everything else derives time from SimTime.
// The `no-wall-clock` lint rule is allowed for exactly this file in
// .hpcemlint.
#include <chrono>

#include "obs/registry.hpp"

namespace hpcem::obs {

namespace detail {

std::uint64_t wall_now_ns() {
  // Observability-only timing: values feed spans and histograms, never a
  // RunArtifact field or a served response.
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

}  // namespace detail

std::uint64_t monotonic_now_ns() { return detail::wall_now_ns(); }

}  // namespace hpcem::obs
