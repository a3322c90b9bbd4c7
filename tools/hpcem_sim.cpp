// hpcem_sim: run a facility campaign from the command line.
//
// Simulates the ARCHER2 model over a committed scenario spec (--spec; see
// docs/SCENARIO_SCHEMA.md and scenarios/) and reports window means, the
// recovered changepoint, service metrics and (optionally) the full
// telemetry as CSV.  The spec file is the only description of a run:
// window, policy, rollouts, seed and warm-up all come from it.
// --spec-dump prints its canonical form and --validate schema-checks it
// without simulating.  A campaign manifest (--campaign) fans many specs
// out over the campaign runner; of the other options it takes only
// --serve-export.  One of --spec or --campaign is required.
//
// Examples:
//   hpcem_sim --spec scenarios/figure1.json
//   hpcem_sim --spec scenarios/ci-smoke.json --validate
//   hpcem_sim --spec scenarios/figure3.json --spec-dump
//   hpcem_sim --campaign scenarios/campaigns/paper-figures.json
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/assembly.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/run_artifact.hpp"
#include "core/spec_io.hpp"
#include "obs/session.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/sim_time.hpp"
#include "util/text_table.hpp"

namespace {

using namespace hpcem;

/// The --spec file, or nullopt after printing its one-line schema error.
std::optional<ScenarioSpec> load_spec(const std::string& path) {
  try {
    return load_scenario_file(path);
  } catch (const ParseError& e) {
    std::cerr << e.what() << '\n';
    return std::nullopt;
  }
}

/// The --campaign manifest, or nullopt after printing its one-line error
/// (a manifest error or one of its specs' schema errors).
std::optional<CampaignManifest> load_manifest(const std::string& path) {
  try {
    return load_campaign_manifest(path);
  } catch (const ParseError& e) {
    std::cerr << e.what() << '\n';
    return std::nullopt;
  }
}

int run_campaign_manifest(const ArgParser& args) {
  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_sim");
    const std::optional<CampaignManifest> loaded =
        load_manifest(args.get("campaign"));
    if (!loaded) return tools::kExitUsage;
    const CampaignManifest& manifest = *loaded;
    const CampaignResult result =
        run_campaign(manifest.specs, manifest.config);

    TextTable t({"Scenario", "Replicates", "Mean kW", "Utilisation",
                 "Energy (kWh)", "Jobs"},
                {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                 Align::kRight, Align::kRight});
    for (const auto& outcome : result.scenarios) {
      t.add_row({outcome.name,
                 TextTable::grouped(static_cast<double>(outcome.replicates)),
                 TextTable::grouped(outcome.mean_kw.mean()),
                 TextTable::pct(outcome.mean_utilisation.mean(), 1),
                 TextTable::grouped(outcome.window_energy_kwh.mean()),
                 TextTable::grouped(outcome.completed_jobs.mean())});
    }
    std::cout << "hpcem_sim campaign: " << args.get("campaign") << " ("
              << result.scenarios.size() << " scenarios, "
              << result.total_runs << " runs, " << result.workers_used
              << " workers)\n"
              << t.str();

    if (!args.get("serve-export").empty()) {
      const std::filesystem::path dir(args.get("serve-export"));
      std::filesystem::create_directories(dir);
      const auto artifacts =
          make_campaign_artifacts(result, manifest.specs);
      for (const auto& artifact : artifacts) {
        std::cout << "campaign artifact written: "
                  << write_artifact_files(
                         artifact, (dir / artifact.scenario).string())
                  << '\n';
      }
    }
    return tools::kExitOk;
  });
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "hpcem_sim — simulate the ARCHER2 facility model from a scenario spec");
  args.add_option("spec", "",
                  "scenario spec file (docs/SCENARIO_SCHEMA.md); this or "
                  "--campaign is required");
  args.add_option("campaign", "",
                  "campaign manifest file: run every referenced spec on the "
                  "campaign runner (combines only with --serve-export)");
  args.add_flag("validate",
                "schema-check --spec and exit; first violation prints one "
                "line and exits 2");
  args.add_flag("spec-dump",
                "print the canonical spec JSON without simulating");
  args.add_option("csv", "", "write the window telemetry to this CSV file");
  args.add_option("serve-export", "",
                  "write <basename>.artifact.json with the full telemetry "
                  "series embedded, ready for hpcem_serve --store (with "
                  "--campaign: a directory of per-scenario artifacts)");
  args.add_flag("metrics", "print service metrics for the window");

  args.set_version(tools::version_line("hpcem_sim"));
  if (!args.parse(argc, argv)) return tools::parse_exit(args);

  if (!args.get("campaign").empty()) {
    // The single-spec options have no campaign meaning: naming one is a
    // usage error, not a silent no-op.
    for (const std::string option : {"spec", "csv"}) {
      if (!args.get(option).empty()) {
        return tools::usage_error(args, "--campaign excludes --" + option);
      }
    }
    for (const std::string flag : {"validate", "spec-dump", "metrics"}) {
      if (args.get_flag(flag)) {
        return tools::usage_error(args, "--campaign excludes --" + flag);
      }
    }
    return run_campaign_manifest(args);
  }
  if (args.get("spec").empty()) {
    return tools::usage_error(args, "--spec or --campaign is required");
  }

  const std::optional<ScenarioSpec> loaded = load_spec(args.get("spec"));
  if (!loaded) return tools::kExitUsage;
  const ScenarioSpec& spec = *loaded;

  if (args.get_flag("validate")) {
    std::cout << "spec ok: " << spec.name << '\n';
    return tools::kExitOk;
  }

  if (args.get_flag("spec-dump")) {
    std::cout << save_scenario(spec);
    return tools::kExitOk;
  }

  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_sim");
    const FacilityAssembly assembly(spec);
    // One run serves the timeline, the service metrics and the CSV dump.
    const auto sim = assembly.run_simulator();
    const TimelineResult result = analyze_timeline(*sim, spec);
    std::cout << render_timeline(
        result, "hpcem_sim: " + spec.name + " (" + args.get("spec") + ")");

    if (args.get_flag("metrics")) {
      std::cout << '\n'
                << render_service_metrics(
                       compute_service_metrics(sim->completed()));
    }

    if (!args.get("csv").empty()) {
      std::ofstream out(args.get("csv"));
      if (!out) {
        std::cerr << "error: cannot write " << args.get("csv") << '\n';
        return tools::kExitFailure;
      }
      out << "time,cabinet_kw\n";
      for (const auto& s : result.cabinet_kw.samples()) {
        out << iso_date_time(s.time) << ',' << s.value << '\n';
      }
      std::cout << "telemetry written to " << args.get("csv") << " ("
                << result.cabinet_kw.size() << " samples)\n";
    }

    if (!args.get("serve-export").empty()) {
      // Same artifact as the figure benches emit, plus the per-channel
      // series so hpcem_serve can answer sub-window and what-if queries.
      RunArtifact artifact = make_run_artifact(*sim, spec, result);
      artifact.channels =
          aggregate_channels(sim->telemetry(), /*include_series=*/true);
      std::cout << "serve artifact written: "
                << write_artifact_files(artifact, args.get("serve-export"))
                << '\n';
    }
    return tools::kExitOk;
  });
}
