#include "power/facility_power.hpp"

#include "util/error.hpp"

namespace hpcem {

FacilityPowerModel::FacilityPowerModel(FacilityInventory inventory,
                                       NodePowerParams node_params,
                                       DynamicPowerProfile fleet_profile,
                                       SwitchPowerModel switch_model,
                                       CabinetOverheadModel cabinet_model,
                                       CduPowerModel cdu_model,
                                       FilesystemPowerModel fs_model)
    : inventory_(inventory),
      node_params_(node_params),
      fleet_profile_(fleet_profile),
      switch_model_(switch_model),
      cabinet_model_(cabinet_model),
      cdu_model_(cdu_model),
      fs_model_(fs_model) {
  require(inventory_.compute_nodes > 0,
          "FacilityPowerModel: need at least one node");
  require(fleet_profile_.core_w >= Power{} &&
              fleet_profile_.uncore_w >= Power{},
          "FacilityPowerModel: dynamic profile must be non-negative");
}

Power FacilityPowerModel::total_power(const NodeActivity& activity) const {
  const Power per_node = node_power(node_params_, fleet_profile_, activity);
  const double load = activity.load;
  Power total = per_node * static_cast<double>(inventory_.compute_nodes);
  total += switch_model_.power(load) *
           static_cast<double>(inventory_.switches);
  total += cabinet_model_.power(load) *
           static_cast<double>(inventory_.cabinets);
  total += cdu_model_.power(load) * static_cast<double>(inventory_.cdus);
  total += fs_model_.power(load) *
           static_cast<double>(inventory_.filesystems);
  return total;
}

Power FacilityPowerModel::total_idle_power() const {
  NodeActivity idle;
  idle.load = 0.0;
  return total_power(idle);
}

Power FacilityPowerModel::cabinet_power(Power node_fleet_power,
                                        double load_factor) const {
  require(load_factor >= 0.0 && load_factor <= 1.0,
          "cabinet_power: load_factor must be in [0, 1]");
  Power total = node_fleet_power;
  total += switch_model_.power(load_factor) *
           static_cast<double>(inventory_.switches);
  total += cabinet_model_.power(load_factor) *
           static_cast<double>(inventory_.cabinets);
  return total;
}

double FacilityPowerModel::cabinet_share_loaded() const {
  NodeActivity loaded;
  loaded.load = 1.0;
  const Power node_fleet =
      node_power(node_params_, fleet_profile_, loaded) *
      static_cast<double>(inventory_.compute_nodes);
  const Power cab = cabinet_power(node_fleet, 1.0);
  return cab / total_power(loaded);
}

std::vector<ComponentPowerRow> FacilityPowerModel::component_table(
    const NodeActivity& loaded_activity) const {
  NodeActivity idle = loaded_activity;
  idle.load = 0.0;

  const Power node_idle = node_power(node_params_, fleet_profile_, idle);
  const Power node_loaded =
      node_power(node_params_, fleet_profile_, loaded_activity);

  std::vector<ComponentPowerRow> rows;
  auto add = [&rows](std::string name, std::size_t count, Power idle_each,
                     Power loaded_each) {
    ComponentPowerRow r;
    r.component = std::move(name);
    r.count = count;
    r.idle_each = idle_each;
    r.loaded_each = loaded_each;
    r.idle_total = idle_each * static_cast<double>(count);
    r.loaded_total = loaded_each * static_cast<double>(count);
    rows.push_back(std::move(r));
  };

  add("Compute nodes", inventory_.compute_nodes, node_idle, node_loaded);
  add("Slingshot interconnect", inventory_.switches, switch_model_.power(0.0),
      switch_model_.power(1.0));
  add("Other cabinet overheads", inventory_.cabinets,
      cabinet_model_.power(0.0), cabinet_model_.power(1.0));
  add("Coolant distribution units", inventory_.cdus, cdu_model_.power(0.0),
      cdu_model_.power(1.0));
  add("File systems", inventory_.filesystems, fs_model_.power(0.0),
      fs_model_.power(1.0));

  Power loaded_total = Power::watts(0.0);
  for (const auto& r : rows) loaded_total += r.loaded_total;
  HPCEM_ASSERT(loaded_total.w() > 0.0, "loaded total must be positive");
  for (auto& r : rows) r.loaded_share = r.loaded_total / loaded_total;
  return rows;
}

}  // namespace hpcem
