// Tests for the report renderers used by the reproduction harnesses.
#include <gtest/gtest.h>

#include "core/report.hpp"

namespace hpcem {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  Facility f_ = Facility::archer2();
};

TEST_F(ReportTest, HardwareSummaryMentionsKeyFacts) {
  const std::string s = render_hardware_summary(f_);
  EXPECT_NE(s.find("Table 1"), std::string::npos);
  EXPECT_NE(s.find("750,080"), std::string::npos);
  EXPECT_NE(s.find("768"), std::string::npos);
}

TEST_F(ReportTest, ComponentTableHasTotalsAndPaperAnchors) {
  NodeActivity loaded;
  loaded.load = 1.0;
  loaded.mode = DeterminismMode::kPowerDeterminism;
  const std::string s =
      render_component_table(f_.power_model().component_table(loaded));
  EXPECT_NE(s.find("Compute nodes"), std::string::npos);
  EXPECT_NE(s.find("Total"), std::string::npos);
  EXPECT_NE(s.find("Paper totals"), std::string::npos);
}

TEST_F(ReportTest, BenchmarkTableShowsModelAndPaperColumns) {
  const EfficiencyAnalyzer analyzer(f_.catalog());
  const std::string s =
      render_benchmark_table(analyzer.table4(), "Table 4 check");
  EXPECT_NE(s.find("Table 4 check"), std::string::npos);
  EXPECT_NE(s.find("Perf. ratio (paper)"), std::string::npos);
  EXPECT_NE(s.find("LAMMPS Ethanol"), std::string::npos);
  EXPECT_NE(s.find("0.74"), std::string::npos);
}

TEST_F(ReportTest, TimelineRendersMeansAndChangepoint) {
  TimelineResult r;
  r.window_start = sim_time_from_date({2022, 4, 1});
  r.window_end = sim_time_from_date({2022, 6, 1});
  r.cabinet_kw = TimeSeries("kW");
  for (int i = 0; i < 2000; ++i) {
    r.cabinet_kw.append(r.window_start + Duration::minutes(30.0 * i),
                        i < 1000 ? 3220.0 : 3010.0);
  }
  r.headline.mean_kw = PowerKw{3115.0};
  r.headline.mean_before_kw = PowerKw{3220.0};
  r.headline.mean_after_kw = PowerKw{3010.0};
  r.headline.mean_utilisation = 0.91;
  r.change_time = sim_time_from_date({2022, 5, 9});
  TimedStepChange sc;
  sc.time = *r.change_time;
  sc.mean_before = 3220.0;
  sc.mean_after = 3010.0;
  r.detected = sc;
  const std::string s = render_timeline(r, "Figure 2 check");
  EXPECT_NE(s.find("Figure 2 check"), std::string::npos);
  EXPECT_NE(s.find("3,220"), std::string::npos);
  EXPECT_NE(s.find("3,010"), std::string::npos);
  EXPECT_NE(s.find("changepoint recovered"), std::string::npos);
  EXPECT_NE(s.find("Apr 2022"), std::string::npos);
  EXPECT_NE(s.find("91.0%"), std::string::npos);
}

TEST_F(ReportTest, EmissionsSweepListsRegimes) {
  const EmissionsModel m(EmbodiedParams{}, Power::kilowatts(3500.0));
  const std::string s = render_emissions_sweep(m.sweep({10, 55, 200}));
  EXPECT_NE(s.find("embodied-dominated"), std::string::npos);
  EXPECT_NE(s.find("operational-dominated"), std::string::npos);
  EXPECT_NE(s.find("Recommended strategy"), std::string::npos);
}

TEST_F(ReportTest, ConclusionsTableCarriesPaperColumn) {
  Conclusions c;
  c.baseline_kw = PowerKw{3254.0};
  c.after_bios_kw = PowerKw{3024.0};
  c.after_freq_kw = PowerKw{2493.0};
  c.bios_saving_kw = PowerKw{230.0};
  c.bios_saving_fraction = 0.0707;
  c.freq_saving_kw = PowerKw{531.0};
  c.freq_saving_fraction = 0.163;
  c.total_saving_kw = PowerKw{761.0};
  c.total_saving_fraction = 0.234;
  const std::string s = render_conclusions(c);
  EXPECT_NE(s.find("3,220"), std::string::npos);  // paper column
  EXPECT_NE(s.find("3,254"), std::string::npos);  // model column
  EXPECT_NE(s.find("21%"), std::string::npos);
}

TEST_F(ReportTest, FrequencySweepTable) {
  const EfficiencyAnalyzer analyzer(f_.catalog());
  const std::string s = render_frequency_sweep(
      "VASP CdTe", analyzer.frequency_sweep("VASP CdTe"));
  EXPECT_NE(s.find("VASP CdTe"), std::string::npos);
  EXPECT_NE(s.find("2.25 GHz + turbo"), std::string::npos);
  EXPECT_NE(s.find("Output/kWh"), std::string::npos);
}

}  // namespace
}  // namespace hpcem
