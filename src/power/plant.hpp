// Non-compute plant power models: interconnect switches, coolant
// distribution units, file systems and cabinet overheads.
//
// Calibration anchors are Table 2 of the paper plus the conclusion's
// observation that switch draw is "steady at 200-250 W irrespective of
// system load" — i.e. the fabric is, to first order, a fixed cost, which is
// why the paper's efficiency work targets the compute nodes.
#pragma once

#include "util/units.hpp"

namespace hpcem {

/// One Slingshot switch.  Draw is nearly load-independent.
struct SwitchPowerModel {
  Power idle = Power::watts(200.0);
  Power loaded = Power::watts(250.0);

  /// Power at a given traffic load fraction in [0, 1].
  [[nodiscard]] Power power(double traffic_load) const;
};

/// Per-cabinet overhead (rectifiers, fans, cabinet controllers).  Scales
/// weakly with the compute load housed in the cabinet: 6.5 kW floor to
/// 8.7 kW fully loaded (23 cabinets -> 150 kW idle / 200 kW loaded).
struct CabinetOverheadModel {
  Power idle = Power::watts(6500.0);
  Power loaded = Power::watts(8700.0);

  [[nodiscard]] Power power(double compute_load) const;
};

/// Coolant distribution unit: constant 16 kW regardless of load (pumps run
/// continuously; Table 2 lists identical idle and loaded values).
struct CduPowerModel {
  Power draw = Power::watts(16000.0);

  [[nodiscard]] Power power(double /*load*/) const { return draw; }
};

/// One file system (NetApp / ClusterStor): constant 8 kW (Table 2).
struct FilesystemPowerModel {
  Power draw = Power::watts(8000.0);

  [[nodiscard]] Power power(double /*load*/) const { return draw; }
};

}  // namespace hpcem
