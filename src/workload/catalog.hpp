// Application catalogue: the paper's benchmark cases plus a production mix.
//
// Two kinds of entries:
//  * *Benchmark cases* — the exact cases of Tables 3 and 4 (CASTEP Al Slab,
//    OpenSBLI TGV 1024³, VASP TiO₂/CdTe, CP2K H₂O-2048, GROMACS 1400k,
//    LAMMPS Ethanol, Nektar++ TGV 128 DoF, ONETEP hBN-BP-hBN).  Their
//    roofline beta is inverted from the published performance ratios, their
//    dynamic power split from the published energy ratios, and (for Table 3
//    cases) the power-determinism uplift from the published determinism
//    energy ratios.  The published numbers are attached so the reproduction
//    harness can print paper-vs-model side by side.
//  * *Production applications* — the background mix that fills the machine
//    in facility simulations, with node-hour weights shaped by the ARCHER2
//    research-area profile (§1.1).  Their parameters are plausible for the
//    code family and tuned so the fleet-level calibration anchors hold
//    (DESIGN.md §3): fleet-average loaded node draw ≈ 0.51 kW under the
//    baseline configuration and the three published cabinet-power means.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/app_model.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

/// Published measurement attached to a benchmark entry.  A benchmark may
/// appear in more than one paper table (CASTEP Al Slab is in both 3 and 4).
struct PaperReference {
  int table = 0;  ///< paper table number (3 or 4)
  std::size_t nodes = 0;
  double perf_ratio = 0.0;
  double energy_ratio = 0.0;
};

/// Catalogue of application models keyed by name.
class AppCatalog {
 public:
  /// Build the default ARCHER2 catalogue against the given node parameters.
  static AppCatalog archer2(const NodePowerParams& node_params);

  /// Empty catalogue for custom construction.
  AppCatalog() = default;

  /// Add an application; throws InvalidArgument on duplicate names.
  void add(ApplicationSpec spec, const NodePowerParams& node_params,
           std::vector<PaperReference> references = {});

  [[nodiscard]] std::size_t size() const { return apps_.size(); }
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Lookup by name; throws InvalidArgument if absent.
  [[nodiscard]] const ApplicationModel& at(const std::string& name) const;

  /// Stable id (insertion index) of an entry; throws InvalidArgument if
  /// absent.  Jobs carry the id, so hot paths never repeat a string
  /// lookup.
  [[nodiscard]] AppId id(const std::string& name) const;
  /// Id of an entry, or nullopt if absent.
  [[nodiscard]] std::optional<AppId> find(const std::string& name) const;

  /// Whether an id names an entry (is in range).
  [[nodiscard]] bool contains(AppId id) const {
    return static_cast<std::size_t>(id) < apps_.size();
  }
  /// Entry by id; throws InvalidArgument if out of range.
  [[nodiscard]] const ApplicationModel& at(AppId id) const;
  /// Name of an entry: how an id is rendered at output.  Throws
  /// InvalidArgument if out of range.
  [[nodiscard]] const std::string& name(AppId id) const {
    return at(id).name();
  }

  /// All paper references attached to an entry (empty for production apps).
  [[nodiscard]] std::span<const PaperReference> references(
      const std::string& name) const;

  /// The reference from a specific paper table, if any.
  [[nodiscard]] std::optional<PaperReference> reference(
      const std::string& name, int table) const;

  [[nodiscard]] std::span<const ApplicationModel> apps() const {
    return apps_;
  }

  /// Entries with positive mix weight, i.e. the production workload.
  [[nodiscard]] std::vector<const ApplicationModel*> production_mix() const;

  /// Entries carrying a published reference from the given table, in
  /// catalogue insertion order (which matches the paper's row order).
  [[nodiscard]] std::vector<const ApplicationModel*> benchmarks_for_table(
      int table) const;

  /// Node-hour-weighted average of an arbitrary per-app metric over the
  /// production mix.
  [[nodiscard]] double mix_average(
      const std::function<double(const ApplicationModel&)>& metric) const;

 private:
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  std::vector<ApplicationModel> apps_;
  std::vector<std::vector<PaperReference>> refs_;
  std::unordered_map<std::string, std::size_t> index_by_name_;
};

}  // namespace hpcem
