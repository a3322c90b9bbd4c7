// hpcem_sim: run a facility campaign from the command line.
//
// Simulates the ARCHER2 model over a date window under an operating policy,
// optionally flipping to another policy mid-window (the paper's rollout
// shape), and reports window means, the recovered changepoint, service
// metrics and (optionally) the full telemetry as CSV.
//
// Scenarios come either from a committed spec file (--spec; see
// docs/SCENARIO_SCHEMA.md and scenarios/) or from the shaping flags below;
// --spec-dump prints the canonical spec for either source and --validate
// schema-checks without simulating.  A campaign manifest (--campaign) fans
// many specs out over the campaign runner.
//
// Examples:
//   hpcem_sim --spec scenarios/figure1.json
//   hpcem_sim --spec scenarios/ci-smoke.json --validate
//   hpcem_sim --start 2022-11-01 --end 2023-01-01 --policy perfdet
//             --change 2022-12-01 --after lowfreq --spec-dump
//   hpcem_sim --campaign scenarios/campaigns/paper-figures.json
#include <filesystem>
#include <fstream>
#include <iostream>

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

std::optional<OperatingPolicy> parse_policy(const std::string& s) {
  if (s == "baseline") return OperatingPolicy::baseline();
  if (s == "perfdet") return OperatingPolicy::performance_determinism();
  if (s == "lowfreq") return OperatingPolicy::low_frequency_default();
  return std::nullopt;
}

int run_campaign_manifest(const ArgParser& args) {
  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_sim");
    const CampaignManifest manifest =
        load_campaign_manifest(args.get("campaign"));
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
      "hpcem_sim — simulate the ARCHER2 facility model over a date window");
  args.add_option("spec", "",
                  "scenario spec file (docs/SCENARIO_SCHEMA.md); replaces "
                  "the shaping flags below");
  args.add_option("campaign", "",
                  "campaign manifest file: run every referenced spec on the "
                  "campaign runner");
  args.add_flag("validate",
                "schema-check --spec (or the flag-built scenario) and exit; "
                "first violation prints one line and exits 2");
  args.add_flag("spec-dump",
                "print the canonical spec JSON without simulating");
  args.add_option("start", "2021-12-01", "window start (YYYY-MM-DD)");
  args.add_option("end", "2022-02-01", "window end (YYYY-MM-DD)");
  args.add_option("policy", "baseline",
                  "operating policy: baseline | perfdet | lowfreq");
  args.add_option("change", "",
                  "date to switch policy mid-window (YYYY-MM-DD)");
  args.add_option("after", "",
                  "policy after the change: baseline | perfdet | lowfreq");
  args.add_option("seed", "24601", "simulation seed");
  args.add_option("warmup-days", "25", "steady-state pre-roll before start");
  args.add_option("csv", "", "write the window telemetry to this CSV file");
  args.add_option("scenario", "hpcem_sim",
                  "scenario id recorded in --serve-export artifacts");
  args.add_option("serve-export", "",
                  "write <basename>.artifact.json with the full telemetry "
                  "series embedded, ready for hpcem_serve --store (with "
                  "--campaign: a directory of per-scenario artifacts)");
  args.add_flag("metrics", "print service metrics for the window");

  args.set_version(tools::version_line("hpcem_sim"));
  if (!args.parse(argc, argv)) return tools::parse_exit(args);

  if (!args.get("campaign").empty()) {
    if (!args.get("spec").empty()) {
      return tools::usage_error(args, "--campaign excludes --spec");
    }
    return run_campaign_manifest(args);
  }

  // Assemble the scenario: a spec file is authoritative; otherwise the
  // shaping flags build one (the historical CLI surface).
  ScenarioSpec spec;
  if (!args.get("spec").empty()) {
    try {
      spec = load_scenario_file(args.get("spec"));
    } catch (const ParseError& e) {
      std::cerr << e.what() << '\n';
      return tools::kExitUsage;
    }
  } else {
    const auto start = parse_date_time(args.get("start"));
    const auto end = parse_date_time(args.get("end"));
    const auto policy = parse_policy(args.get("policy"));
    if (!start || !end || !policy) {
      return tools::usage_error(args, "bad --start/--end date or --policy");
    }

    spec.name = args.get("scenario");
    spec.window_start = *start;
    spec.window_end = *end;
    spec.policy = *policy;
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    spec.warmup = Duration::days(args.get_double("warmup-days"));

    if (!args.get("change").empty() || !args.get("after").empty()) {
      const auto change = parse_date_time(args.get("change"));
      const auto after = parse_policy(args.get("after"));
      if (!change || !after) {
        return tools::usage_error(args,
                                  "--change and --after must both be valid");
      }
      if (*change <= spec.window_start || *change >= spec.window_end) {
        return tools::usage_error(args,
                                  "--change must fall inside the window");
      }
      spec.changes.push_back({*change, *after});
    }
  }

  if (args.get_flag("validate")) {
    // Round through the schema layer so flag-built scenarios are held to
    // the same rules as files; a loaded spec has already passed.
    try {
      (void)scenario_from_json(scenario_to_json(spec));
    } catch (const ParseError& e) {
      std::cerr << e.what() << '\n';
      return tools::kExitUsage;
    }
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
    const std::string title =
        !args.get("spec").empty()
            ? "hpcem_sim: " + spec.name + " (" + args.get("spec") + ")"
            : "hpcem_sim: " + args.get("start") + " .. " + args.get("end") +
                  " (" + args.get("policy") + ")";
    std::cout << render_timeline(result, title);

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
