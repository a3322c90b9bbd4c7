// Job descriptions exchanged between the workload generator and scheduler.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "power/pstate.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace hpcem {

using JobId = std::uint64_t;

/// An application, by its catalogue insertion index (AppCatalog::id).
/// Jobs carry the id; the name is rendered through the catalogue only at
/// output (trace CSV, accounting, tool text).
enum class AppId : std::uint32_t {};

/// Quality-of-service class, shaped like the ARCHER2 Slurm QoS set.
enum class QosClass {
  kStandard,     ///< the default production class
  kShort,        ///< small/short debug-style jobs, boosted priority
  kLargeScale,   ///< very wide jobs, boosted so they can ever assemble
  kLowPriority,  ///< discounted opportunistic work, runs in the gaps
};

[[nodiscard]] std::string to_string(QosClass q);

/// A job as submitted: what to run, how big, and any user frequency choice.
struct JobSpec {
  JobId id = 0;
  std::size_t nodes = 1;
  /// Runtime at reference conditions (boost clock, performance
  /// determinism); actual runtime depends on the policy at start.
  Duration ref_runtime = Duration::hours(1.0);
  SimTime submit_time;
  /// Walltime the user requested from the scheduler (used for backfill
  /// planning); must be >= any achievable actual runtime.
  Duration requested_walltime = Duration::hours(24.0);
  /// Explicit per-job CPU frequency choice (srun --cpu-freq); overrides the
  /// service default and any per-application opt-out when set.
  std::optional<PState> user_pstate;
  /// Per-job mean silicon quality of the allocated nodes (fleet mean 1.0).
  double silicon_factor = 1.0;
  /// Catalogue application (packed beside `qos`).
  AppId app{};
  /// Scheduling class (only consulted by the priority discipline).
  QosClass qos = QosClass::kStandard;
};

/// A completed job with its realised schedule and energy.
struct JobRecord {
  JobSpec spec;
  SimTime start_time;
  SimTime end_time;
  PState pstate;            ///< frequency the job actually ran at
  DeterminismMode mode;     ///< BIOS mode during the run
  Energy node_energy;       ///< compute-node energy consumed
  Power node_power_w;       ///< per-node draw while running

  [[nodiscard]] Duration runtime() const { return end_time - start_time; }
  [[nodiscard]] Duration wait_time() const {
    return start_time - spec.submit_time;
  }
  [[nodiscard]] double node_hours() const {
    return static_cast<double>(spec.nodes) * runtime().hrs();
  }
};

// Plain bytes: parking, queueing and logging a job is a memcpy, never a
// heap allocation.
static_assert(std::is_trivially_copyable_v<JobSpec>);
static_assert(std::is_trivially_copyable_v<JobRecord>);

}  // namespace hpcem
