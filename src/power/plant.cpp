#include "power/plant.hpp"

#include "util/error.hpp"

namespace hpcem {

namespace {
void check_load(double load, const char* who) {
  require(load >= 0.0 && load <= 1.0, who, ": load must be in [0, 1]");
}
}  // namespace

Power SwitchPowerModel::power(double traffic_load) const {
  check_load(traffic_load, "SwitchPowerModel");
  return idle + (loaded - idle) * traffic_load;
}

Power CabinetOverheadModel::power(double compute_load) const {
  check_load(compute_load, "CabinetOverheadModel");
  return idle + (loaded - idle) * compute_load;
}

Power PueModel::facility_power(Power it_power) const {
  require(pue >= 1.0, "PueModel: PUE must be >= 1");
  return it_power * pue;
}

}  // namespace hpcem
