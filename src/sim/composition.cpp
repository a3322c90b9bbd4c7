#include "sim/composition.hpp"

namespace hpcem {

namespace {
// Channel names as std::string so channel() can hand out a reference.
const std::string kNodeFleetChannel = channels::kNodeFleetKw;
const std::string kSwitchChannel = channels::kSwitchKw;
const std::string kOverheadChannel = channels::kOverheadKw;
const std::string kCduChannel = channels::kCduKw;
const std::string kFilesystemChannel = channels::kFilesystemKw;
const std::string kCoolingChannel = channels::kCoolingKw;
}  // namespace

NodeFleetSource::NodeFleetSource(NodePowerParams params,
                                 IdlePowerPolicy idle_policy)
    : params_(params), idle_policy_(idle_policy) {}

const std::string& NodeFleetSource::channel() const {
  return kNodeFleetChannel;
}

Power NodeFleetSource::power(const SimSnapshot& s) const {
  return s.busy_node_power_w +
         fleet_idle_power(params_.idle, idle_policy_, s.idle_nodes());
}

SwitchFabricSource::SwitchFabricSource(SwitchPowerModel model,
                                       std::size_t switch_count)
    : model_(model), count_(switch_count) {}

const std::string& SwitchFabricSource::channel() const {
  return kSwitchChannel;
}

Power SwitchFabricSource::power(const SimSnapshot& s) const {
  return model_.power(s.utilisation) * static_cast<double>(count_);
}

CabinetOverheadSource::CabinetOverheadSource(CabinetOverheadModel model,
                                             std::size_t cabinet_count)
    : model_(model), count_(cabinet_count) {}

const std::string& CabinetOverheadSource::channel() const {
  return kOverheadChannel;
}

Power CabinetOverheadSource::power(const SimSnapshot& s) const {
  return model_.power(s.utilisation) * static_cast<double>(count_);
}

CduSource::CduSource(CduPowerModel model, std::size_t cdu_count)
    : model_(model), count_(cdu_count) {}

const std::string& CduSource::channel() const { return kCduChannel; }

Power CduSource::power(const SimSnapshot& s) const {
  return model_.power(s.utilisation) * static_cast<double>(count_);
}

FilesystemSource::FilesystemSource(FilesystemPowerModel model,
                                   std::size_t fs_count)
    : model_(model), count_(fs_count) {}

const std::string& FilesystemSource::channel() const {
  return kFilesystemChannel;
}

Power FilesystemSource::power(const SimSnapshot& s) const {
  return model_.power(s.utilisation) * static_cast<double>(count_);
}

CoolingOverheadSource::CoolingOverheadSource(CoolingModel model,
                                             double outdoor_c)
    : model_(std::move(model)), outdoor_c_(outdoor_c) {}

const std::string& CoolingOverheadSource::channel() const {
  return kCoolingChannel;
}

Power CoolingOverheadSource::power(const SimSnapshot& s) const {
  return model_.overhead_power(s.total_power_so_far_w, outdoor_c_);
}

}  // namespace hpcem
