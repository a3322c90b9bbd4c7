// hpcem_analyze: run the paper's telemetry analysis on your own data.
//
// Input: a CSV with columns `time` (ISO "YYYY-MM-DD hh:mm" or epoch
// seconds) and a power column in kW — a cabinet-meter export.  Output:
// window statistics, weekly structure, recovered operational change points
// (the Figure 2/3 analysis), and a day-ahead forecast.  This is the
// analysis half of the library with the simulator swapped out for real
// sensors.
//
// Example:
//   hpcem_analyze --csv cabinet_power.csv --value-column cabinet_kw
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/run_artifact.hpp"
#include "obs/session.hpp"
#include "telemetry/changepoint.hpp"
#include "telemetry/forecast.hpp"
#include "telemetry/seasonal.hpp"
#include "tool_main.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/text_table.hpp"

namespace {

using namespace hpcem;

// A finite number, the whole cell consumed.
std::optional<double> parse_finite(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// Timestamps are either strict ISO date-times (see parse_date_time: field
// ranges validated, whole string consumed) or finite epoch seconds.
std::optional<SimTime> parse_time(const std::string& s) {
  if (const auto t = parse_date_time(s)) return t;
  if (const auto epoch = parse_finite(s)) return SimTime(*epoch);
  return std::nullopt;
}

RunArtifact load_artifact(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw ParseError("cannot open artifact: " + path);
  return RunArtifact::from_json_text(*text);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "hpcem_analyze — changepoints, weekly structure and forecasts from a "
      "power-telemetry CSV");
  args.add_option("csv", "", "input CSV path (required)");
  args.add_option("time-column", "time",
                  "column with ISO timestamps or epoch seconds");
  args.add_option("value-column", "cabinet_kw", "column with power in kW");
  args.add_option("min-segment-days", "4",
                  "changepoint minimum segment, in days");
  args.add_option("penalty", "12", "multi-step detection penalty");
  args.add_option("artifact-out", "",
                  "write <basename>.artifact.json/.aggregates.csv with the "
                  "analysis results");
  args.add_option("serve-export", "",
                  "write <basename>.artifact.json with the telemetry series "
                  "embedded, ready for hpcem_serve --store");
  args.add_option("scenario", "",
                  "scenario id for exported artifacts (default: the CSV "
                  "path)");
  args.add_option("compare", "",
                  "run-artifact JSON to diff the headline numbers against "
                  "(e.g. a simulated figure run)");
  args.add_flag("no-plot", "skip the ASCII timeline");

  args.set_version(tools::version_line("hpcem_analyze"));

  if (!args.parse(argc, argv)) return tools::parse_exit(args);
  if (args.get("csv").empty()) {
    return tools::usage_error(args, "--csv is required");
  }
  if (!tools::int_in_range(args, "min-segment-days", 1)) {
    return tools::kExitUsage;
  }

  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_analyze");
    const CsvTable table = read_csv_file(args.get("csv"));
    const std::size_t tc = table.column(args.get("time-column"));
    const std::size_t vc = table.column(args.get("value-column"));
    TimeSeries series("kW");
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& row = table.rows[r];
      const std::string where = args.get("csv") + ": line " +
                                std::to_string(table.lines[r]) + ": ";
      const auto t = parse_time(row[tc]);
      if (!t) throw ParseError(where + "bad timestamp: " + row[tc]);
      const auto v = parse_finite(row[vc]);
      if (!v) throw ParseError(where + "bad value: " + row[vc]);
      series.append(*t, *v);
    }
    if (series.size() < 32) {
      std::cerr << "error: need at least 32 samples, got "
                << series.size() << '\n';
      return tools::kExitFailure;
    }

    // 1. Overview.
    const Summary s = series.summary();
    std::cout << series.size() << " samples, "
              << iso_date_time(series.start_time()) << " .. "
              << iso_date_time(series.end_time()) << "\nmean "
              << TextTable::grouped(s.mean) << " kW | p05 "
              << TextTable::grouped(s.p05) << " | p95 "
              << TextTable::grouped(s.p95) << " | sigma "
              << TextTable::grouped(s.stddev) << "\n\n";

    if (!args.get_flag("no-plot")) {
      AsciiPlotOptions opts;
      opts.title = args.get("csv");
      opts.y_label = "kW";
      opts.height = 14;
      opts.reference_lines = {s.mean};
      std::cout << ascii_plot(series.values(), opts) << '\n';
    }

    // 2. Weekly structure (needs two weeks).
    const bool has_weeks = series.span().day() >= 14.0;
    if (has_weeks) {
      const WeeklyDecomposition weekly = decompose_weekly(series);
      std::cout << "weekly structure: weekday-weekend swing "
                << TextTable::grouped(weekly.weekday_weekend_delta)
                << " kW, residual sigma "
                << TextTable::grouped(weekly.residual_stddev) << " kW\n";
    }

    // 3. Change points.  The raw series mixes diurnal/weekly cycles and
    // autocorrelated scheduler noise with any genuine level shifts, so the
    // detection recipe (same as the scenario analysis) is: remove the
    // weekly profile, average to daily means (decorrelates), then demand a
    // stiff penalty.
    TimeSeries detect_on = series;
    if (has_weeks) {
      detect_on = deseasonalise(series, decompose_weekly(series));
    }
    detect_on = detect_on.resample(Duration::days(1.0));
    const auto vals = detect_on.values();
    const auto steps = detect_steps(
        vals, static_cast<std::size_t>(args.get_int("min-segment-days")),
        args.get_double("penalty"));
    std::vector<ArtifactChangePoint> found;
    for (const auto& st : steps) {
      const SimTime at = detect_on[st.index].time;
      const PowerKw before{series.mean_over(series.start_time(), at)};
      const PowerKw after{series.mean_over(
          at, series.end_time() + Duration::seconds(1.0))};
      found.push_back({at, before, after, /*detected=*/true});
    }
    if (found.empty()) {
      std::cout << "no significant level shifts detected\n";
    } else {
      TextTable t({"Change at", "Mean before (kW)", "Mean after (kW)",
                   "Step (kW)"},
                  {Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight});
      for (const auto& cp : found) {
        t.add_row({iso_date_time(cp.at),
                   TextTable::grouped(cp.mean_before_kw.kw()),
                   TextTable::grouped(cp.mean_after_kw.kw()),
                   TextTable::grouped(
                       (cp.mean_after_kw - cp.mean_before_kw).kw())});
      }
      std::cout << t.str();
    }

    // 4. Day-ahead forecast.
    if (has_weeks) {
      const PowerForecaster fc(series);
      const TimeSeries tomorrow = fc.forecast_series(
          series.end_time(), series.end_time() + Duration::days(1.0),
          Duration::hours(1.0));
      const Summary f = tomorrow.summary();
      std::cout << "\nday-ahead forecast: mean "
                << TextTable::grouped(f.mean) << " kW, envelope "
                << TextTable::grouped(f.min) << " - "
                << TextTable::grouped(f.max) << " kW\n";
    }

    // 5. Machine-readable artifact: the same schema the figure benches
    // and the campaign runner emit, so real telemetry and simulated runs
    // diff with plain file tools.
    if (!args.get("artifact-out").empty() ||
        !args.get("serve-export").empty() || !args.get("compare").empty()) {
      RunArtifact artifact;
      artifact.scenario = args.get("scenario").empty()
                              ? args.get("csv")
                              : args.get("scenario");
      artifact.source = "telemetry-csv";
      artifact.window_start = series.start_time();
      artifact.window_end = series.end_time();
      artifact.headline.mean_kw = PowerKw{s.mean};
      artifact.headline.mean_before_kw = PowerKw{s.mean};
      artifact.headline.mean_after_kw = PowerKw{s.mean};
      if (!found.empty()) {
        artifact.headline.mean_before_kw = found.front().mean_before_kw;
        artifact.headline.mean_after_kw = found.back().mean_after_kw;
      }
      artifact.headline.window_energy_kwh =
          EnergyKwh{series.integrate() / 3600.0};
      artifact.change_points = found;
      artifact.channels.push_back(
          aggregate_channel(args.get("value-column"), series));
      artifact.obs = collected_obs_metrics();

      if (!args.get("artifact-out").empty()) {
        std::cout << "\nartifact written: "
                  << write_artifact_files(artifact, args.get("artifact-out"))
                  << '\n';
      }
      if (!args.get("serve-export").empty()) {
        // Swap the aggregate-only channel for one carrying the raw series
        // (the shape hpcem_serve needs for sub-window queries).
        RunArtifact serveable = artifact;
        serveable.channels.clear();
        serveable.channels.push_back(aggregate_channel(
            args.get("value-column"), series, /*include_series=*/true));
        std::cout << "serve artifact written: "
                  << write_artifact_files(serveable, args.get("serve-export"))
                  << '\n';
      }
      if (!args.get("compare").empty()) {
        const RunArtifact ref = load_artifact(args.get("compare"));
        TextTable t({"Headline", "This CSV", ref.scenario, "Delta"},
                    {Align::kLeft, Align::kRight, Align::kRight,
                     Align::kRight});
        const auto row = [&t](const std::string& label, double a,
                              double b) {
          t.add_row({label, TextTable::grouped(a), TextTable::grouped(b),
                     TextTable::grouped(a - b)});
        };
        row("mean (kW)", artifact.headline.mean_kw.kw(),
            ref.headline.mean_kw.kw());
        row("mean before (kW)", artifact.headline.mean_before_kw.kw(),
            ref.headline.mean_before_kw.kw());
        row("mean after (kW)", artifact.headline.mean_after_kw.kw(),
            ref.headline.mean_after_kw.kw());
        row("window energy (kWh)", artifact.headline.window_energy_kwh.kwh(),
            ref.headline.window_energy_kwh.kwh());
        std::cout << '\n' << t.str();
      }
    }
    return tools::kExitOk;
  });
}
