#include "workload/catalog.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace hpcem {

using namespace literals;

namespace {

/// Build a benchmark spec from its Table 4 row: invert the published
/// performance ratio into beta and the published energy ratio into the
/// dynamic power split (rho = energy_ratio * perf_ratio).  `loaded_w` is
/// raised to the feasibility bound if the published ratios demand it.
ApplicationSpec benchmark_from_table4(std::string name, ScienceArea area,
                                      double perf_ratio, double energy_ratio,
                                      Power loaded_w,
                                      const NodePowerParams& node_params) {
  ApplicationSpec spec;
  spec.name = std::move(name);
  spec.area = area;
  spec.boost = Frequency::ghz(2.8);
  spec.beta = beta_from_perf_ratio(perf_ratio, spec.boost);
  spec.power_ratio_2ghz = energy_ratio * perf_ratio;
  const Power min_l = min_feasible_loaded_power(
      node_params, spec.power_ratio_2ghz, spec.boost);
  spec.loaded_node_w = std::max(loaded_w, min_l + 5.0_W);
  spec.mix_weight = 0.0;  // benchmark-only entry
  return spec;
}

}  // namespace

AppCatalog AppCatalog::archer2(const NodePowerParams& np) {
  AppCatalog cat;

  // -------------------------------------------------------------------
  // Benchmark cases (Tables 3 and 4).  Published numbers from the paper.
  // -------------------------------------------------------------------

  // CASTEP Al Slab: Table 4 (4 nodes: perf 0.93, energy 0.88) and
  // Table 3 (16 nodes: perf 0.99, energy 0.94).
  {
    auto spec = benchmark_from_table4("CASTEP Al Slab",
                                      ScienceArea::kMaterials, 0.93, 0.88,
                                      450.0_W, np);
    spec.power_det_uplift = calibrate_power_det_uplift(spec, np, 0.94);
    spec.comm_fraction = 0.20;
    spec.typical_nodes = 16;
    spec.typical_runtime_h = 2.0;
    cat.add(std::move(spec), np,
            {{4, 4, 0.93, 0.88}, {3, 16, 0.99, 0.94}});
  }

  // CP2K H2O 2048: Table 4 (4 nodes: perf 0.91, energy 0.93).
  {
    auto spec = benchmark_from_table4("CP2K H2O 2048",
                                      ScienceArea::kMaterials, 0.91, 0.93,
                                      460.0_W, np);
    spec.power_det_uplift = 0.20;
    spec.comm_fraction = 0.18;
    spec.typical_nodes = 4;
    spec.typical_runtime_h = 1.5;
    cat.add(std::move(spec), np, {{4, 4, 0.91, 0.93}});
  }

  // GROMACS 1400k: Table 4 (3 nodes: perf 0.83, energy 0.92).
  {
    auto spec = benchmark_from_table4("GROMACS 1400k",
                                      ScienceArea::kBiomolecular, 0.83, 0.92,
                                      490.0_W, np);
    spec.power_det_uplift = 0.22;
    spec.comm_fraction = 0.12;
    spec.typical_nodes = 3;
    spec.typical_runtime_h = 1.0;
    cat.add(std::move(spec), np, {{4, 3, 0.83, 0.92}});
  }

  // LAMMPS Ethanol: Table 4 (4 nodes: perf 0.74, energy 0.92).
  {
    auto spec = benchmark_from_table4("LAMMPS Ethanol",
                                      ScienceArea::kMaterials, 0.74, 0.92,
                                      510.0_W, np);
    spec.power_det_uplift = 0.24;
    spec.comm_fraction = 0.08;
    spec.typical_nodes = 4;
    spec.typical_runtime_h = 1.0;
    cat.add(std::move(spec), np, {{4, 4, 0.74, 0.92}});
  }

  // Nektar++ TGV 128 DoF: Table 4 (2 nodes: perf 0.80, energy 0.80).
  {
    auto spec = benchmark_from_table4("Nektar++ TGV 128 DoF",
                                      ScienceArea::kEngineering, 0.80, 0.80,
                                      570.0_W, np);
    spec.power_det_uplift = 0.20;
    spec.comm_fraction = 0.10;
    spec.typical_nodes = 2;
    spec.typical_runtime_h = 2.0;
    cat.add(std::move(spec), np, {{4, 2, 0.80, 0.80}});
  }

  // ONETEP hBN-BP-hBN: Table 4 (4 nodes: perf 0.92, energy 0.82).
  {
    auto spec = benchmark_from_table4("ONETEP hBN-BP-hBN",
                                      ScienceArea::kMaterials, 0.92, 0.82,
                                      450.0_W, np);
    spec.power_det_uplift = 0.16;
    spec.comm_fraction = 0.15;
    spec.typical_nodes = 4;
    spec.typical_runtime_h = 3.0;
    cat.add(std::move(spec), np, {{4, 4, 0.92, 0.82}});
  }

  // VASP CdTe: Table 4 (8 nodes: perf 0.95, energy 0.88).
  {
    auto spec = benchmark_from_table4("VASP CdTe", ScienceArea::kMaterials,
                                      0.95, 0.88, 470.0_W, np);
    spec.power_det_uplift = 0.19;
    spec.comm_fraction = 0.22;
    spec.typical_nodes = 8;
    spec.typical_runtime_h = 2.0;
    cat.add(std::move(spec), np, {{4, 8, 0.95, 0.88}});
  }

  // VASP TiO2: Table 3 only (32 nodes: perf 0.99, energy 0.93).  No
  // published 2.0 GHz data; parameters follow the CdTe case.
  {
    ApplicationSpec spec;
    spec.name = "VASP TiO2";
    spec.area = ScienceArea::kMaterials;
    spec.beta = 0.14;
    spec.power_ratio_2ghz = 0.84;
    spec.loaded_node_w = 470.0_W;
    spec.comm_fraction = 0.22;
    spec.typical_nodes = 32;
    spec.typical_runtime_h = 2.0;
    spec.power_det_uplift = calibrate_power_det_uplift(spec, np, 0.93);
    cat.add(std::move(spec), np, {{3, 32, 0.99, 0.93}});
  }

  // OpenSBLI TGV 1024^3: Table 3 only (32 nodes: perf 1.00, energy 0.90).
  // A structured-grid CFD code: memory-bandwidth dominated at this scale.
  {
    ApplicationSpec spec;
    spec.name = "OpenSBLI TGV 1024";
    spec.area = ScienceArea::kEngineering;
    spec.beta = 0.35;
    spec.power_ratio_2ghz = 0.80;
    spec.loaded_node_w = 470.0_W;
    spec.comm_fraction = 0.15;
    spec.typical_nodes = 32;
    spec.typical_runtime_h = 1.0;
    spec.power_det_uplift = calibrate_power_det_uplift(spec, np, 0.90);
    cat.add(std::move(spec), np, {{3, 32, 1.00, 0.90}});
  }

  // -------------------------------------------------------------------
  // Production mix.  Weights are node-hour shares shaped by the ARCHER2
  // research-area profile; power parameters tuned to the fleet anchors
  // (see file comment).  Names carry "(production)" to distinguish them
  // from the fixed benchmark cases above.
  // -------------------------------------------------------------------
  struct MixRow {
    const char* name;
    ScienceArea area;
    double weight;
    double beta;
    double rho;
    Power loaded_w;
    double uplift;
    double comm;
    double nodes;
    double runtime_h;
  };
  const MixRow mix[] = {
      {"VASP (production)", ScienceArea::kMaterials, 25, 0.15, 0.80, 460.0_W,
       0.21, 0.22, 8, 8},
      {"CASTEP (production)", ScienceArea::kMaterials, 10, 0.19, 0.80, 445.0_W,
       0.16, 0.20, 16, 6},
      {"CP2K (production)", ScienceArea::kMaterials, 7, 0.24, 0.78, 450.0_W,
       0.22, 0.18, 8, 6},
      {"GROMACS (production)", ScienceArea::kBiomolecular, 8, 0.51, 0.74,
       485.0_W, 0.25, 0.12, 4, 12},
      {"LAMMPS (production)", ScienceArea::kMaterials, 5, 0.88, 0.68, 505.0_W,
       0.27, 0.08, 8, 8},
      {"UM atmosphere (production)", ScienceArea::kClimateOcean, 10, 0.24,
       0.73, 460.0_W, 0.22, 0.25, 128, 6},
      {"NEMO ocean (production)", ScienceArea::kClimateOcean, 8, 0.24, 0.73,
       455.0_W, 0.22, 0.25, 64, 8},
      {"OpenSBLI (production)", ScienceArea::kEngineering, 8, 0.24, 0.78,
       465.0_W, 0.30, 0.15, 64, 6},
      {"Nektar++ (production)", ScienceArea::kEngineering, 2, 0.625, 0.64,
       570.0_W, 0.22, 0.10, 16, 8},
      {"ONETEP (production)", ScienceArea::kMaterials, 2, 0.22, 0.75, 440.0_W,
       0.18, 0.15, 4, 10},
      {"SENGA combustion (production)", ScienceArea::kEngineering, 5, 0.24,
       0.72, 475.0_W, 0.22, 0.20, 128, 12},
      {"GS2 gyrokinetics (production)", ScienceArea::kPlasma, 5, 0.24, 0.70,
       460.0_W, 0.21, 0.18, 32, 8},
      {"SPECFEM3D (production)", ScienceArea::kSeismology, 5, 0.245, 0.75,
       470.0_W, 0.22, 0.20, 64, 10},
      {"CRYSTAL (production)", ScienceArea::kMineralPhysics, 5, 0.20, 0.76,
       450.0_W, 0.19, 0.15, 16, 8},
  };
  for (const auto& row : mix) {
    ApplicationSpec spec;
    spec.name = row.name;
    spec.area = row.area;
    spec.mix_weight = row.weight;
    spec.beta = row.beta;
    spec.power_ratio_2ghz = row.rho;
    spec.loaded_node_w = row.loaded_w;
    spec.power_det_uplift = row.uplift;
    spec.comm_fraction = row.comm;
    spec.typical_nodes = row.nodes;
    spec.typical_runtime_h = row.runtime_h;
    cat.add(std::move(spec), np);
  }

  return cat;
}

void AppCatalog::add(ApplicationSpec spec, const NodePowerParams& node_params,
                     std::vector<PaperReference> references) {
  require(!contains(spec.name),
          "AppCatalog::add: duplicate application name: ", spec.name);
  require(apps_.size() < std::numeric_limits<std::uint32_t>::max(),
          "AppCatalog::add: too many applications for an AppId");
  apps_.emplace_back(std::move(spec), node_params);
  refs_.push_back(std::move(references));
  index_by_name_.emplace(apps_.back().name(), apps_.size() - 1);
}

bool AppCatalog::contains(const std::string& name) const {
  return index_by_name_.count(name) > 0;
}

std::size_t AppCatalog::index_of(const std::string& name) const {
  const auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) {
    throw InvalidArgument("AppCatalog: no such application: " + name);
  }
  return it->second;
}

const ApplicationModel& AppCatalog::at(const std::string& name) const {
  return apps_[index_of(name)];
}

AppId AppCatalog::id(const std::string& name) const {
  return static_cast<AppId>(index_of(name));
}

std::optional<AppId> AppCatalog::find(const std::string& name) const {
  const auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) return std::nullopt;
  return static_cast<AppId>(it->second);
}

const ApplicationModel& AppCatalog::at(AppId id) const {
  require(contains(id), "AppCatalog: application id out of range: ",
          static_cast<std::uint32_t>(id));
  return apps_[static_cast<std::size_t>(id)];
}

std::span<const PaperReference> AppCatalog::references(
    const std::string& name) const {
  return refs_[index_of(name)];
}

std::optional<PaperReference> AppCatalog::reference(const std::string& name,
                                                    int table) const {
  for (const auto& r : refs_[index_of(name)]) {
    if (r.table == table) return r;
  }
  return std::nullopt;
}

std::vector<const ApplicationModel*> AppCatalog::production_mix() const {
  std::vector<const ApplicationModel*> out;
  for (const auto& a : apps_) {
    if (a.spec().mix_weight > 0.0) out.push_back(&a);
  }
  return out;
}

std::vector<const ApplicationModel*> AppCatalog::benchmarks_for_table(
    int table) const {
  std::vector<const ApplicationModel*> out;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    for (const auto& r : refs_[i]) {
      if (r.table == table) {
        out.push_back(&apps_[i]);
        break;
      }
    }
  }
  return out;
}

double AppCatalog::mix_average(
    const std::function<double(const ApplicationModel&)>& metric) const {
  double num = 0.0;
  double den = 0.0;
  for (const auto& a : apps_) {
    const double w = a.spec().mix_weight;
    if (w > 0.0) {
      num += w * metric(a);
      den += w;
    }
  }
  require_state(den > 0.0, "AppCatalog::mix_average: empty production mix");
  return num / den;
}

}  // namespace hpcem
