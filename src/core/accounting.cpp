#include "core/accounting.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/text_table.hpp"

namespace hpcem {

double UsageBreakdown::area_share(const std::string& area) const {
  const auto it = by_area.find(area);
  if (it == by_area.end() || total.node_hours <= 0.0) return 0.0;
  return it->second.node_hours / total.node_hours;
}

UsageBreakdown account_usage(const std::vector<JobRecord>& records,
                             const AppCatalog& catalog,
                             CarbonIntensity intensity) {
  require(!records.empty(), "account_usage: no records");
  require(intensity.gkwh() >= 0.0,
          "account_usage: intensity must be >= 0");
  UsageBreakdown b;
  const std::string unknown = "(unknown)";
  for (const auto& r : records) {
    const bool known = catalog.contains(r.spec.app);
    const std::string area =
        known ? to_string(catalog.at(r.spec.app).spec().area) : unknown;
    const std::string& app = known ? catalog.name(r.spec.app) : unknown;
    const CarbonMass scope2 = r.node_energy * intensity;
    for (UsageBucket* bucket : {&b.by_area[area], &b.by_app[app], &b.total}) {
      bucket->jobs += 1;
      bucket->node_hours += r.node_hours();
      bucket->energy += r.node_energy;
      bucket->scope2 += scope2;
    }
  }
  return b;
}

std::string render_usage_breakdown(const UsageBreakdown& b) {
  std::vector<std::pair<std::string, const UsageBucket*>> areas;
  areas.reserve(b.by_area.size());
  for (const auto& [name, bucket] : b.by_area) {
    areas.emplace_back(name, &bucket);
  }
  std::sort(areas.begin(), areas.end(), [](const auto& x, const auto& y) {
    return x.second->node_hours > y.second->node_hours;
  });

  TextTable t({"Research area", "Jobs", "Node-hours", "Share",
               "Energy (MWh)", "Mean node draw (W)", "Scope 2 (t)"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight, Align::kRight});
  for (const auto& [name, bucket] : areas) {
    t.add_row({name, TextTable::grouped(static_cast<double>(bucket->jobs)),
               TextTable::grouped(bucket->node_hours),
               TextTable::pct(bucket->node_hours / b.total.node_hours, 1),
               TextTable::num(bucket->energy.to_mwh(), 1),
               TextTable::num(bucket->mean_node_w().w(), 0),
               TextTable::num(bucket->scope2.t(), 2)});
  }
  t.add_rule();
  t.add_row({"Total", TextTable::grouped(static_cast<double>(b.total.jobs)),
             TextTable::grouped(b.total.node_hours), "100.0%",
             TextTable::num(b.total.energy.to_mwh(), 1),
             TextTable::num(b.total.mean_node_w().w(), 0),
             TextTable::num(b.total.scope2.t(), 2)});
  std::ostringstream os;
  os << "Usage and energy by research area\n" << t.str();
  return os.str();
}

}  // namespace hpcem
