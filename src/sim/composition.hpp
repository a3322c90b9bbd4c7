// Pluggable power composition for the facility simulator.
//
// The facility power breakdown is a list of components: a `PowerSource`
// contributes a named power channel and, when inside the paper's
// compute-cabinet metering boundary, to the aggregate `cabinet_kw`
// channel.  Cooling/CDU/filesystem/idle-suspension models plug in as
// additional sources without touching the simulator loop.  The
// scheduler-state channels (utilisation, queue length, running jobs) are
// recorded by the simulator itself.
//
// Sources are evaluated in list order; the snapshot exposes the power
// accumulated by the sources evaluated so far, which is how derived
// overheads (e.g. a PUE-style cooling source) see the IT power they
// amplify.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "power/cooling.hpp"
#include "power/idle.hpp"
#include "power/node_model.hpp"
#include "power/plant.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Telemetry channel names: the cabinet meter, the scheduler-state
/// channels the simulator records, and the sources' power channels.
namespace channels {
inline constexpr const char* kCabinetKw = "cabinet_kw";
inline constexpr const char* kNodeFleetKw = "node_fleet_kw";
inline constexpr const char* kUtilisation = "utilisation";
inline constexpr const char* kQueueLength = "queue_length";
inline constexpr const char* kRunningJobs = "running_jobs";
inline constexpr const char* kSwitchKw = "switch_kw";
inline constexpr const char* kOverheadKw = "overhead_kw";
// Optional plant sources (outside the cabinet metering boundary).
inline constexpr const char* kCduKw = "cdu_kw";
inline constexpr const char* kFilesystemKw = "filesystem_kw";
inline constexpr const char* kCoolingKw = "cooling_kw";
}  // namespace channels

/// Instantaneous machine state handed to sources at a sampling instant.
/// Everything is a value and nothing in it is a clock: a source's power is
/// a pure function of the snapshot, so the simulator re-evaluates only
/// after a job start or finish changes it.
struct SimSnapshot {
  std::size_t total_nodes = 0;
  std::size_t busy_nodes = 0;
  /// Node-allocation fraction in [0, 1].
  double utilisation = 0.0;
  /// Sum of the per-node draws of all running jobs, W.
  Power busy_node_power_w;
  /// Power of the metered (cabinet-boundary) sources evaluated before this
  /// one.  Zero for the first source.
  Power metered_power_so_far_w;
  /// Power of every source evaluated before this one.
  Power total_power_so_far_w;

  [[nodiscard]] std::size_t idle_nodes() const {
    return total_nodes - busy_nodes;
  }
};

/// One contributor to the facility power breakdown.
class PowerSource {
 public:
  virtual ~PowerSource() = default;

  /// Telemetry channel this source records to (unit: kW).
  [[nodiscard]] virtual const std::string& channel() const = 0;

  /// Instantaneous draw at the sampled machine state.
  [[nodiscard]] virtual Power power(const SimSnapshot& s) const = 0;

  /// True if the source sits inside the paper's compute-cabinet metering
  /// boundary and therefore contributes to the `cabinet_kw` channel.
  [[nodiscard]] virtual bool metered() const { return true; }

  /// True if the per-source channel carries the cabinet meter's
  /// multiplicative noise (sub-meters derived from the cabinet meter do;
  /// independently modelled plant does not).
  [[nodiscard]] virtual bool noisy() const { return false; }
};

/// Ordered power-source list the simulator runs with.
using SimComposition = std::vector<std::unique_ptr<PowerSource>>;

// ---------------------------------------------------------------------------
// Standard sources (the canonical cabinet-boundary breakdown).

/// Compute-node fleet: running jobs at their resolved draw plus idle nodes
/// at the idle floor — optionally with the idle-suspension lever applied to
/// the idle share.
class NodeFleetSource final : public PowerSource {
 public:
  NodeFleetSource(NodePowerParams params, IdlePowerPolicy idle_policy = {});

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;
  [[nodiscard]] bool noisy() const override { return true; }

 private:
  NodePowerParams params_;
  IdlePowerPolicy idle_policy_;
};

/// The dragonfly fabric: near-load-independent per-switch draw.
class SwitchFabricSource final : public PowerSource {
 public:
  SwitchFabricSource(SwitchPowerModel model, std::size_t switch_count);

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;

 private:
  SwitchPowerModel model_;
  std::size_t count_;
};

/// Per-cabinet overheads (rectifiers, fans, controllers).
class CabinetOverheadSource final : public PowerSource {
 public:
  CabinetOverheadSource(CabinetOverheadModel model,
                        std::size_t cabinet_count);

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;

 private:
  CabinetOverheadModel model_;
  std::size_t count_;
};

// ---------------------------------------------------------------------------
// Optional plant sources (outside the cabinet metering boundary).

/// Coolant distribution units: constant draw, outside the cabinet boundary.
class CduSource final : public PowerSource {
 public:
  CduSource(CduPowerModel model, std::size_t cdu_count);

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;
  [[nodiscard]] bool metered() const override { return false; }

 private:
  CduPowerModel model_;
  std::size_t count_;
};

/// File systems: constant draw, outside the cabinet boundary.
class FilesystemSource final : public PowerSource {
 public:
  FilesystemSource(FilesystemPowerModel model, std::size_t fs_count);

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;
  [[nodiscard]] bool metered() const override { return false; }

 private:
  FilesystemPowerModel model_;
  std::size_t count_;
};

/// PUE-style cooling overhead on the power accumulated so far: must be
/// ordered after the IT sources it amplifies.  Outside the cabinet
/// boundary (the paper's meters sit upstream of the cooling plant).
class CoolingOverheadSource final : public PowerSource {
 public:
  CoolingOverheadSource(CoolingModel model, double outdoor_c);

  [[nodiscard]] const std::string& channel() const override;
  [[nodiscard]] Power power(const SimSnapshot& s) const override;
  [[nodiscard]] bool metered() const override { return false; }

 private:
  CoolingModel model_;
  double outdoor_c_;
};

}  // namespace hpcem
