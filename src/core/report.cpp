#include "core/report.hpp"

#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/text_table.hpp"

namespace hpcem {

std::string render_hardware_summary(const Facility& facility) {
  TextTable t({"Item", "Value"});
  for (const auto& row : facility.hardware_summary()) {
    t.add_row({row.item, row.value});
  }
  std::ostringstream os;
  os << "Table 1: " << facility.name() << " hardware summary\n" << t.str();
  return os.str();
}

std::string render_component_table(
    const std::vector<ComponentPowerRow>& rows) {
  TextTable t({"Component", "Count", "Idle (kW) [each]",
               "Loaded (kW) [each]", "Idle total (kW)", "Loaded total (kW)",
               "Approx. %"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight, Align::kRight});
  Power idle_total = Power::watts(0.0);
  Power loaded_total = Power::watts(0.0);
  for (const auto& r : rows) {
    t.add_row({r.component, std::to_string(r.count),
               TextTable::num(r.idle_each.kw(), 2),
               TextTable::num(r.loaded_each.kw(), 2),
               TextTable::grouped(r.idle_total.kw()),
               TextTable::grouped(r.loaded_total.kw()),
               TextTable::pct(r.loaded_share, 0)});
    idle_total += r.idle_total;
    loaded_total += r.loaded_total;
  }
  t.add_rule();
  t.add_row({"Total", "", "", "", TextTable::grouped(idle_total.kw()),
             TextTable::grouped(loaded_total.kw()), ""});
  std::ostringstream os;
  os << "Table 2: per-component power draw (model)\n"
     << t.str()
     << "Paper totals: idle 1,800 kW, loaded 3,500 kW; node share 86%, "
        "interconnect 6%, cabinet overheads 6%, CDUs 3%, file systems 1%.\n";
  return os.str();
}

std::string render_benchmark_table(
    const std::vector<BenchmarkComparison>& rows, const std::string& title) {
  TextTable t({"Application benchmark", "Nodes", "Perf. ratio (model)",
               "Perf. ratio (paper)", "Energy ratio (model)",
               "Energy ratio (paper)"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight});
  for (const auto& r : rows) {
    t.add_row({r.app, std::to_string(r.nodes),
               TextTable::num(r.perf_ratio, 2),
               r.paper ? TextTable::num(r.paper->perf_ratio, 2) : "-",
               TextTable::num(r.energy_ratio, 2),
               r.paper ? TextTable::num(r.paper->energy_ratio, 2) : "-"});
  }
  std::ostringstream os;
  os << title << '\n' << t.str();
  return os.str();
}

std::string render_timeline(const TimelineResult& result,
                            const std::string& title) {
  AsciiPlotOptions opts;
  opts.title = title;
  opts.y_label = "compute cabinet power, kW";
  opts.width = 96;
  opts.height = 18;
  if (result.change_time) {
    opts.reference_lines = {result.headline.mean_before_kw.kw(),
                            result.headline.mean_after_kw.kw()};
  } else {
    opts.reference_lines = {result.headline.mean_kw.kw()};
  }
  // Month labels across the window.
  CivilDate d = date_from_sim_time(result.window_start);
  const CivilDate end_d = date_from_sim_time(result.window_end);
  d.day = 1;
  while (CivilDate{d.year, d.month, 1} <= end_d) {
    opts.x_ticks.push_back(month_year_label(d));
    if (++d.month > 12) {
      d.month = 1;
      ++d.year;
    }
  }

  std::ostringstream os;
  os << ascii_plot(result.cabinet_kw.values(), opts);
  os << "window mean: " << TextTable::grouped(result.headline.mean_kw.kw()) << " kW"
     << " | mean utilisation: "
     << TextTable::pct(result.headline.mean_utilisation, 1) << '\n';
  if (result.change_time) {
    os << "policy change applied " << iso_date_time(*result.change_time)
       << ": mean " << TextTable::grouped(result.headline.mean_before_kw.kw())
       << " kW before -> " << TextTable::grouped(result.headline.mean_after_kw.kw())
       << " kW after\n";
  }
  if (result.detected) {
    os << "changepoint recovered from telemetry at "
       << iso_date_time(result.detected->time) << ": "
       << TextTable::grouped(result.detected->mean_before) << " kW -> "
       << TextTable::grouped(result.detected->mean_after) << " kW\n";
  }
  return os.str();
}

std::string render_emissions_sweep(
    const std::vector<EmissionsScenario>& rows) {
  TextTable t({"Intensity (gCO2/kWh)", "Scope 2 (t/yr)", "Scope 3 (t/yr)",
               "Scope-2 share", "Regime", "Recommended strategy"},
              {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
               Align::kLeft, Align::kLeft});
  for (const auto& r : rows) {
    t.add_row({TextTable::num(r.intensity.gkwh(), 0),
               TextTable::grouped(r.annual_scope2.t()),
               TextTable::grouped(r.annual_scope3.t()),
               TextTable::pct(r.scope2_share, 0), to_string(r.regime),
               to_string(r.strategy)});
  }
  std::ostringstream os;
  os << "Emissions regimes (paper section 2)\n" << t.str();
  return os.str();
}

std::string render_conclusions(const Conclusions& c) {
  TextTable t({"Quantity", "Model", "Paper"},
              {Align::kLeft, Align::kRight, Align::kRight});
  t.add_row({"Baseline cabinet power (kW)",
             TextTable::grouped(c.baseline_kw.kw()), "3,220"});
  t.add_row({"After BIOS change (kW)", TextTable::grouped(c.after_bios_kw.kw()),
             "3,010"});
  t.add_row({"After frequency change (kW)",
             TextTable::grouped(c.after_freq_kw.kw()), "2,530"});
  t.add_row({"BIOS change saving (kW)",
             TextTable::grouped(c.bios_saving_kw.kw()), "210"});
  t.add_row({"BIOS change saving (%)",
             TextTable::pct(c.bios_saving_fraction, 1), "6.5%"});
  t.add_row({"Frequency change saving (kW)",
             TextTable::grouped(c.freq_saving_kw.kw()), "480"});
  t.add_row({"Frequency change saving (%)",
             TextTable::pct(c.freq_saving_fraction, 1), "15%"});
  t.add_row({"Total saving (kW)", TextTable::grouped(c.total_saving_kw.kw()),
             "690"});
  t.add_row({"Total saving (%)", TextTable::pct(c.total_saving_fraction, 1),
             "21%"});
  std::ostringstream os;
  os << "Conclusions summary (paper section 5)\n" << t.str();
  return os.str();
}

std::string render_frequency_sweep(const std::string& app,
                                   const std::vector<FrequencyPoint>& sweep) {
  TextTable t({"P-state", "Perf. ratio", "Energy ratio", "Node power (W)",
               "Output/kWh ratio"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight});
  for (const auto& p : sweep) {
    t.add_row({to_string(p.pstate), TextTable::num(p.perf_ratio, 3),
               TextTable::num(p.energy_ratio, 3),
               TextTable::num(p.node_power_w.w(), 0),
               TextTable::num(p.output_per_kwh_ratio, 3)});
  }
  std::ostringstream os;
  os << "Frequency sweep: " << app << '\n' << t.str();
  return os.str();
}

}  // namespace hpcem
