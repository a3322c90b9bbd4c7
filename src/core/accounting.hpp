// Per-research-area energy accounting.
//
// The paper's companion work (HPC-JEEP, reference [3]) broke ARCHER2's
// energy down by application and research community.  This module does the
// same over the simulator's accounting records: node-hours, compute-node
// energy, mean draw and scope-2 emissions per science area and per
// application — the view a service needs to attribute its footprint to
// its user communities.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "grid/carbon.hpp"
#include "workload/catalog.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

/// Aggregate usage of one group (area or application).
struct UsageBucket {
  std::size_t jobs = 0;
  double node_hours = 0.0;
  Energy energy;
  CarbonMass scope2;

  [[nodiscard]] Power mean_node_w() const {
    return Power::watts(
        node_hours > 0.0 ? energy.to_kwh() / node_hours * 1000.0 : 0.0);
  }
};

/// Energy accounting broken down by community.
struct UsageBreakdown {
  std::map<std::string, UsageBucket> by_area;
  std::map<std::string, UsageBucket> by_app;
  UsageBucket total;

  /// Node-hour share of one area (0 when absent).
  [[nodiscard]] double area_share(const std::string& area) const;
};

/// Aggregate records against the catalogue's area labels and names at a
/// flat carbon intensity.  Ids outside the catalogue are grouped under
/// "(unknown)", as both area and application.
[[nodiscard]] UsageBreakdown account_usage(
    const std::vector<JobRecord>& records, const AppCatalog& catalog,
    CarbonIntensity intensity);

/// Render the per-area table (node-hour descending).
[[nodiscard]] std::string render_usage_breakdown(const UsageBreakdown& b);

}  // namespace hpcem
