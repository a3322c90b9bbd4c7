// The pluggable composition seam: PowerSource components drive the
// simulator's power breakdown and channel set.
#include "sim/composition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/assembly.hpp"
#include "sim/facility_sim.hpp"
#include "util/error.hpp"
#include "workload/catalog.hpp"

namespace hpcem {
namespace {

FacilitySimConfig micro_config(std::uint64_t seed = 1) {
  FacilitySimConfig cfg;
  cfg.inventory.compute_nodes = 64;
  cfg.inventory.switches = 16;
  cfg.inventory.cabinets = 1;
  cfg.inventory.cdus = 1;
  cfg.inventory.filesystems = 1;
  cfg.gen.offered_load = 0.91;
  cfg.gen.max_job_nodes = 16;
  cfg.seed = seed;
  return cfg;
}

class CompositionTest : public ::testing::Test {
 protected:
  NodePowerParams np_;
  AppCatalog cat_ = AppCatalog::archer2(np_);

  static SimTime start() { return sim_time_from_date({2022, 3, 1}); }
  static SimTime end() { return start() + Duration::days(3.0); }
};

/// A constant extra draw inside the metering boundary.
class ConstantSource final : public PowerSource {
 public:
  ConstantSource(std::string channel, double watts, bool metered)
      : channel_(std::move(channel)), watts_(watts), metered_(metered) {}
  [[nodiscard]] const std::string& channel() const override {
    return channel_;
  }
  [[nodiscard]] Power power(const SimSnapshot&) const override {
    return Power::watts(watts_);
  }
  [[nodiscard]] bool metered() const override { return metered_; }

 private:
  std::string channel_;
  double watts_;
  bool metered_;
};

TEST_F(CompositionTest, ExplicitStandardCompositionMatchesDefault) {
  const auto cfg = micro_config(7);
  FacilitySimulator a(cat_, cfg);
  FacilitySimulator b(cat_, cfg, FacilitySimulator::standard_composition(cfg));
  a.run(start(), end());
  b.run(start(), end());
  const auto& sa = a.telemetry().channel(channels::kCabinetKw);
  const auto& sb = b.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].value, sb[i].value);
  }
}

TEST_F(CompositionTest, MeteredSourceRaisesCabinetChannel) {
  const auto cfg = micro_config(9);
  FacilitySimulator plain(cat_, cfg);
  auto comp = FacilitySimulator::standard_composition(cfg);
  comp.push_back(
      std::make_unique<ConstantSource>("heater_kw", 5000.0, true));
  FacilitySimulator heated(cat_, cfg, std::move(comp));
  plain.run(start(), end());
  heated.run(start(), end());

  const auto& a = plain.telemetry().channel(channels::kCabinetKw);
  const auto& b = heated.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same machine, same RNG stream: the delta is exactly 5 kW times the
    // shared per-sample noise factor, i.e. ~5 kW.
    ASSERT_NEAR(b[i].value - a[i].value, 5.0, 5.0 * 0.05);
  }
  const auto& heater = heated.telemetry().channel("heater_kw");
  for (const auto& s : heater.samples()) ASSERT_EQ(s.value, 5.0);
}

TEST_F(CompositionTest, UnmeteredPlantLeavesCabinetChannelBitIdentical) {
  const auto cfg = micro_config(11);
  FacilitySimulator plain(cat_, cfg);
  auto comp = FacilitySimulator::standard_composition(cfg);
  comp.push_back(
      std::make_unique<CduSource>(CduPowerModel{}, cfg.inventory.cdus));
  comp.push_back(std::make_unique<FilesystemSource>(
      FilesystemPowerModel{}, cfg.inventory.filesystems));
  FacilitySimulator plant(cat_, cfg, std::move(comp));
  plain.run(start(), end());
  plant.run(start(), end());

  // The plant sources sit outside the paper's metering boundary: the
  // cabinet channel must not change by a single bit.
  const auto& a = plain.telemetry().channel(channels::kCabinetKw);
  const auto& b = plant.telemetry().channel(channels::kCabinetKw);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].value, b[i].value);
  }
  // But their own channels exist and carry the constant plant draw.
  const auto& cdu = plant.telemetry().channel(channels::kCduKw);
  ASSERT_FALSE(cdu.empty());
  for (const auto& s : cdu.samples()) {
    ASSERT_EQ(s.value, 16.0);  // one CDU at 16 kW (Table 2)
  }
  ASSERT_FALSE(
      plant.telemetry().channel(channels::kFilesystemKw).empty());
}

TEST_F(CompositionTest, CoolingSourceSeesUpstreamPower) {
  auto cfg = micro_config(13);
  cfg.metering_noise_sigma = 0.0;
  auto comp = FacilitySimulator::standard_composition(cfg);
  comp.push_back(
      std::make_unique<CoolingOverheadSource>(CoolingModel{}, 15.0));
  FacilitySimulator sim(cat_, cfg, std::move(comp));
  sim.run(start(), end());
  const auto& cab = sim.telemetry().channel(channels::kCabinetKw);
  const auto& cool = sim.telemetry().channel(channels::kCoolingKw);
  ASSERT_EQ(cab.size(), cool.size());
  for (std::size_t i = 0; i < cab.size(); ++i) {
    // Cooling amplifies the upstream IT power: nonzero, but a fraction.
    ASSERT_GT(cool[i].value, 0.0);
    ASSERT_LT(cool[i].value, cab[i].value * 0.5);
  }
}

TEST_F(CompositionTest, IdleSuspensionLowersNodeFleetPower) {
  auto cfg = micro_config(17);
  cfg.metering_noise_sigma = 0.0;
  cfg.gen.offered_load = 0.5;  // leave idle nodes for the lever to act on

  auto plain_comp = FacilitySimulator::standard_composition(cfg);
  FacilitySimulator plain(cat_, cfg, std::move(plain_comp));

  IdlePowerPolicy suspend;
  suspend.suspend_enabled = true;
  SimComposition comp;
  comp.push_back(std::make_unique<NodeFleetSource>(cfg.node_params, suspend));
  comp.push_back(std::make_unique<SwitchFabricSource>(
      cfg.switch_model, cfg.inventory.switches));
  comp.push_back(std::make_unique<CabinetOverheadSource>(
      cfg.cabinet_model, cfg.inventory.cabinets));
  FacilitySimulator suspended(cat_, cfg, std::move(comp));

  plain.run(start(), end());
  suspended.run(start(), end());
  const double plain_mean =
      plain.telemetry().channel(channels::kNodeFleetKw).mean();
  const double susp_mean =
      suspended.telemetry().channel(channels::kNodeFleetKw).mean();
  EXPECT_LT(susp_mean, plain_mean * 0.99);
}

// Power conservation across the recorded channels, on noise-free meters.
// Each side of an identity is a handful of roundings of a sum of positive
// kW values (the cabinet meter converts the watt sum once; each channel
// converts its own term), so per sample the two sides agree to `ulps`
// ulps of the total.  An integral is a Neumaier-compensated sum of
// trapezoids, each carrying that per-sample error plus three roundings;
// the compensation adds under one rounding of the total, so twice the
// per-sample bound holds the integrals.
class PowerConservation : public ::testing::TestWithParam<bool> {};

TEST_P(PowerConservation, ChannelsSumToTheMeteredTotals) {
  const bool extras = GetParam();
  constexpr double kOutdoorC = 15.0;
  ScenarioSpec spec;
  spec.machine = MachineModel::kMicro;
  spec.window_start = sim_time_from_date({2022, 3, 1});
  spec.window_end = spec.window_start + Duration::days(3.0);
  spec.warmup = Duration::days(1.0);
  spec.seed = 21;
  spec.metering_noise_sigma = 0.0;
  spec.model_cdus = extras;
  spec.model_filesystems = extras;
  if (extras) spec.cooling_outdoor_c = kOutdoorC;
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  const Recorder& rec = sim->telemetry();

  const std::vector<std::string> cabinet_sources = {
      channels::kNodeFleetKw, channels::kSwitchKw, channels::kOverheadKw};
  // IT plant outside the cabinet boundary, and every source channel.
  std::vector<std::string> it_plant;
  std::vector<std::string> all_sources = cabinet_sources;
  if (extras) {
    it_plant = {channels::kCduKw, channels::kFilesystemKw};
    all_sources.insert(all_sources.end(),
                       {channels::kCduKw, channels::kFilesystemKw,
                        channels::kCoolingKw});
  }
  std::vector<std::string> expected = {
      channels::kCabinetKw, channels::kUtilisation, channels::kQueueLength,
      channels::kRunningJobs};
  expected.insert(expected.end(), all_sources.begin(), all_sources.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(expected.size(), extras ? 10u : 7u);
  ASSERT_EQ(rec.channel_names(), expected);

  const auto& cab = rec.channel(channels::kCabinetKw);
  for (const auto& name : expected) {
    ASSERT_EQ(rec.channel(name).size(), cab.size()) << name;
  }
  const auto sum_at = [&](const std::vector<std::string>& names,
                          std::size_t i) {
    double sum = 0.0;
    for (const auto& name : names) sum += rec.channel(name)[i].value;
    return sum;
  };
  const auto integral = [&](const std::vector<std::string>& names) {
    double sum = 0.0;
    for (const auto& name : names) sum += rec.channel(name).integrate();
    return sum;
  };
  // The facility total: the cooling plant's PUE applied to the IT power
  // (the cabinet meter plus the IT plant outside it); 1 without cooling.
  const double pue = extras ? CoolingModel{}.pue_at(kOutdoorC) : 1.0;

  const double eps = std::numeric_limits<double>::epsilon();
  const double ulps = extras ? 8.0 : 4.0;
  for (std::size_t i = 0; i < cab.size(); ++i) {
    ASSERT_GT(cab[i].value, 0.0);
    ASSERT_LE(std::abs(cab[i].value - sum_at(cabinet_sources, i)),
              ulps * eps * cab[i].value)
        << "sample " << i;
    const double facility = pue * (cab[i].value + sum_at(it_plant, i));
    ASSERT_LE(std::abs(facility - sum_at(all_sources, i)),
              ulps * eps * facility)
        << "sample " << i;
  }

  const double cab_integral = cab.integrate();
  EXPECT_LE(std::abs(cab_integral - integral(cabinet_sources)),
            2.0 * ulps * eps * cab_integral);
  const double facility_integral = pue * (cab_integral + integral(it_plant));
  EXPECT_LE(std::abs(facility_integral - integral(all_sources)),
            2.0 * ulps * eps * facility_integral);
}

INSTANTIATE_TEST_SUITE_P(Composition, PowerConservation,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "WithPlantExtras"
                                              : "StandardComposition";
                         });

TEST_F(CompositionTest, EmptyCompositionRejected) {
  EXPECT_THROW(
      FacilitySimulator(cat_, micro_config(), SimComposition{}),
      InvalidArgument);
}

}  // namespace
}  // namespace hpcem
