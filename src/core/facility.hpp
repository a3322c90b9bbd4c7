// Facility assembly: the ARCHER2 configuration in one place.
//
// `Facility` wires every substrate together — hardware inventory (Table 1),
// node/plant power models (Table 2), the application catalogue, the
// dragonfly fabric and default simulation settings — so that examples,
// tests and reproduction harnesses all start from the same calibrated
// machine and differ only in policy and scenario.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interconnect/dragonfly.hpp"
#include "power/facility_power.hpp"
#include "sim/facility_sim.hpp"
#include "workload/catalog.hpp"
#include "workload/policy.hpp"

namespace hpcem {

/// A row of the Table 1 hardware summary.
struct HardwareSummaryRow {
  std::string item;
  std::string value;
};

/// The modelled machine.
class Facility {
 public:
  /// The ARCHER2 configuration (HPE Cray EX, 5,860 nodes, 750,080 cores).
  static Facility archer2();

  /// A 512-node test machine with the same node physics and catalogue:
  /// 8 dragonfly groups x 8 switches x 8 ports, 2 cabinets.  Simulations
  /// run ~10x faster; per-node behaviour is identical to archer2(), so it
  /// is the right target for experimentation and CI.
  static Facility testbed();

  /// A 64-node micro machine (4 groups x 4 switches x 4 ports, 1 cabinet)
  /// for campaign fan-out benchmarks and fast unit tests: cheap enough
  /// that dozens of shared-nothing simulators run side by side.
  static Facility micro();

  /// Custom machines (smaller test systems, what-if studies).
  Facility(std::string name, FacilityInventory inventory,
           NodePowerParams node_params, DragonflyParams fabric_params,
           WorkloadGenParams gen_params);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FacilityInventory& inventory() const {
    return inventory_;
  }
  [[nodiscard]] const NodePowerParams& node_params() const {
    return node_params_;
  }
  [[nodiscard]] const AppCatalog& catalog() const { return catalog_; }
  [[nodiscard]] const Dragonfly& fabric() const { return *fabric_; }

  /// Aggregate power model with the production-mix average node profile.
  [[nodiscard]] const FacilityPowerModel& power_model() const {
    return *power_model_;
  }

  /// Default simulator configuration for this machine (simulators are
  /// built from a ScenarioSpec through core/assembly.hpp).
  [[nodiscard]] FacilitySimConfig sim_config(std::uint64_t seed) const;

  /// Table 1 reproduction: the hardware summary rows.
  [[nodiscard]] std::vector<HardwareSummaryRow> hardware_summary() const;

  /// Predicted steady-state cabinet power under a policy at a given
  /// utilisation (analytic, no simulation): production-mix-weighted node
  /// draw plus fabric and cabinet overheads.  This is the planning estimate
  /// an operator would use before rolling out a change.
  [[nodiscard]] Power predicted_cabinet_power(const OperatingPolicy& policy,
                                              double utilisation) const;

  /// Mix-average expected slowdown of a policy vs the baseline policy.
  [[nodiscard]] double mean_slowdown(const OperatingPolicy& policy) const;

 private:
  std::string name_;
  FacilityInventory inventory_;
  NodePowerParams node_params_;
  WorkloadGenParams gen_params_;
  AppCatalog catalog_;
  std::unique_ptr<Dragonfly> fabric_;
  std::unique_ptr<FacilityPowerModel> power_model_;
};

}  // namespace hpcem
