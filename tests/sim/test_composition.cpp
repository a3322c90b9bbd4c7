// The pluggable composition seam: PowerSource / TelemetryProbe components
// drive the simulator's power breakdown and channel set.
#include "sim/composition.hpp"

#include <gtest/gtest.h>

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

/// A probe recording the accumulated total power it observes.
class TotalPowerProbe final : public TelemetryProbe {
 public:
  void declare_channels(Recorder& recorder) override {
    recorder.channel("probe_total_kw", "kW");
  }
  void on_sample(const SimSnapshot& s, Recorder& recorder) override {
    recorder.record("probe_total_kw", s.now,
                    s.total_power_so_far_w.w() / 1000.0);
  }
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
  comp.sources.push_back(
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
  comp.sources.push_back(
      std::make_unique<CduSource>(CduPowerModel{}, cfg.inventory.cdus));
  comp.sources.push_back(std::make_unique<FilesystemSource>(
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
  comp.sources.push_back(
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

TEST_F(CompositionTest, CustomProbeSeesAccumulatedTotals) {
  auto cfg = micro_config(15);
  cfg.metering_noise_sigma = 0.0;
  auto comp = FacilitySimulator::standard_composition(cfg);
  comp.probes.push_back(std::make_unique<TotalPowerProbe>());
  FacilitySimulator sim(cat_, cfg, std::move(comp));
  sim.run(start(), end());
  const auto& cab = sim.telemetry().channel(channels::kCabinetKw);
  const auto& probe = sim.telemetry().channel("probe_total_kw");
  ASSERT_EQ(cab.size(), probe.size());
  for (std::size_t i = 0; i < cab.size(); ++i) {
    // With zero metering noise and only metered sources, the probe's total
    // equals the cabinet aggregate.
    ASSERT_NEAR(probe[i].value, cab[i].value, 1e-9);
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
  comp.sources.push_back(
      std::make_unique<NodeFleetSource>(cfg.node_params, suspend));
  comp.sources.push_back(std::make_unique<SwitchFabricSource>(
      cfg.switch_model, cfg.inventory.switches));
  comp.sources.push_back(std::make_unique<CabinetOverheadSource>(
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

TEST_F(CompositionTest, EmptyCompositionRejected) {
  EXPECT_THROW(
      FacilitySimulator(cat_, micro_config(), SimComposition{}),
      InvalidArgument);
}

}  // namespace
}  // namespace hpcem
