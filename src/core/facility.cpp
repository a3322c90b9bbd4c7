#include "core/facility.hpp"

#include "util/error.hpp"
#include "util/text_table.hpp"

namespace hpcem {

Facility Facility::archer2() {
  FacilityInventory inventory;   // defaults are the ARCHER2 counts
  NodePowerParams node_params;   // defaults are the ARCHER2 calibration
  DragonflyParams fabric;        // defaults give the 768-switch dragonfly
  WorkloadGenParams gen;
  gen.offered_load = 0.91;       // yields the >90% utilisation of §3.2
  gen.weekend_factor = 0.75;
  return Facility("ARCHER2", inventory, node_params, fabric, gen);
}

Facility Facility::testbed() {
  FacilityInventory inventory;
  inventory.compute_nodes = 512;
  inventory.switches = 64;
  inventory.cabinets = 2;
  inventory.cdus = 1;
  inventory.filesystems = 1;
  DragonflyParams fabric;
  fabric.groups = 8;
  fabric.switches_per_group = 8;
  fabric.nodes_per_switch = 8;
  WorkloadGenParams gen;
  gen.offered_load = 0.91;
  gen.max_job_nodes = 128;
  return Facility("hpcem-testbed", inventory, NodePowerParams{}, fabric,
                  gen);
}

Facility Facility::micro() {
  FacilityInventory inventory;
  inventory.compute_nodes = 64;
  inventory.switches = 16;
  inventory.cabinets = 1;
  inventory.cdus = 1;
  inventory.filesystems = 1;
  DragonflyParams fabric;
  fabric.groups = 4;
  fabric.switches_per_group = 4;
  fabric.nodes_per_switch = 4;
  WorkloadGenParams gen;
  gen.offered_load = 0.91;
  gen.max_job_nodes = 16;
  return Facility("hpcem-micro", inventory, NodePowerParams{}, fabric,
                  gen);
}

Facility::Facility(std::string name, FacilityInventory inventory,
                   NodePowerParams node_params,
                   DragonflyParams fabric_params,
                   WorkloadGenParams gen_params)
    : name_(std::move(name)),
      inventory_(inventory),
      node_params_(node_params),
      gen_params_(gen_params),
      catalog_(AppCatalog::archer2(node_params)) {
  fabric_ = std::make_unique<Dragonfly>(fabric_params,
                                        inventory_.compute_nodes);
  require(fabric_->params().total_switches() == inventory_.switches,
          "Facility: fabric switch count must match the inventory");

  // Fleet-average dynamic profile for whole-machine estimates.
  DynamicPowerProfile fleet;
  fleet.core_w = Power::watts(catalog_.mix_average(
      [](const ApplicationModel& a) { return a.profile().core_w.w(); }));
  fleet.uncore_w = Power::watts(catalog_.mix_average(
      [](const ApplicationModel& a) { return a.profile().uncore_w.w(); }));
  power_model_ = std::make_unique<FacilityPowerModel>(
      inventory_, node_params_, fleet);
}

FacilitySimConfig Facility::sim_config(std::uint64_t seed) const {
  FacilitySimConfig cfg;
  cfg.inventory = inventory_;
  cfg.node_params = node_params_;
  cfg.gen = gen_params_;
  cfg.seed = seed;
  return cfg;
}

std::vector<HardwareSummaryRow> Facility::hardware_summary() const {
  std::vector<HardwareSummaryRow> rows;
  rows.push_back({"Compute nodes",
                  TextTable::grouped(static_cast<double>(
                      inventory_.compute_nodes)) +
                      " nodes (" +
                      TextTable::grouped(static_cast<double>(
                          inventory_.total_cores())) +
                      " compute cores)"});
  rows.push_back({"Processors per node",
                  "2x AMD EPYC 64-core, 2.25 GHz (2x " +
                      std::to_string(inventory_.cores_per_node / 2) +
                      " cores)"});
  rows.push_back({"Memory per node", "256/512 GB DDR4 RAM"});
  rows.push_back({"Interconnect NICs per node", "2x Slingshot 10"});
  rows.push_back(
      {"Slingshot switches",
       TextTable::grouped(static_cast<double>(inventory_.switches)) +
           " switches, dragonfly topology (" +
           std::to_string(fabric_->params().groups) + " groups x " +
           std::to_string(fabric_->params().switches_per_group) +
           " switches)"});
  rows.push_back({"Storage",
                  "1 PB NetApp, 13.6 PB ClusterStor L300 (HDD), 1 PB "
                  "ClusterStor E1000 (NVMe) — " +
                      std::to_string(inventory_.filesystems) +
                      " file systems"});
  rows.push_back({"Cabinets",
                  std::to_string(inventory_.cabinets) +
                      " compute cabinets, " +
                      std::to_string(inventory_.cdus) + " CDUs"});
  return rows;
}

Power Facility::predicted_cabinet_power(const OperatingPolicy& policy,
                                        double utilisation) const {
  require(utilisation >= 0.0 && utilisation <= 1.0,
          "Facility::predicted_cabinet_power: utilisation in [0,1]");
  // Mix-weighted busy-node draw, honouring the per-application auto-revert.
  const Power busy_node_w =
      Power::watts(catalog_.mix_average([&](const ApplicationModel& app) {
        JobSpec probe;  // no user override
        const PState ps = policy.resolve_pstate(app, probe);
        return app.node_draw(policy.bios_mode, ps).w();
      }));
  const auto n = static_cast<double>(inventory_.compute_nodes);
  const double busy = n * utilisation;
  const double idle = n - busy;
  Power nodes = busy_node_w * busy + node_params_.idle * idle;
  return power_model_->cabinet_power(nodes, utilisation);
}

double Facility::mean_slowdown(const OperatingPolicy& policy) const {
  const OperatingPolicy base = OperatingPolicy::baseline();
  return catalog_.mix_average([&](const ApplicationModel& app) {
    JobSpec probe;
    const PState ps = policy.resolve_pstate(app, probe);
    const PState ps_base = base.resolve_pstate(app, probe);
    const double t_new = app.time_factor(policy.bios_mode, ps);
    const double t_base = app.time_factor(base.bios_mode, ps_base);
    return t_new / t_base - 1.0;
  });
}

}  // namespace hpcem
