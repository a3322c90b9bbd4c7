// hpcem_replay: replay a job trace through the facility model.
//
// Takes a CSV trace (the layout written by workload/trace.hpp — convert
// your sacct dump to it), simulates the trace under a chosen operating
// policy, and reports cabinet power, service metrics and per-area energy.
// Running the same trace under two policies answers "what would this
// month's workload have cost under the other configuration?" — the
// counterfactual the paper's operators had to estimate before rolling
// anything out.
//
// Example:
//   hpcem_replay --trace jobs.csv --policy lowfreq --intensity 200
#include <iostream>
#include <utility>

#include "core/accounting.hpp"
#include "core/metrics.hpp"
#include "core/run_artifact.hpp"
#include "core/scenario_library.hpp"
#include "core/spec_io.hpp"
#include "obs/session.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/text_table.hpp"
#include "workload/trace.hpp"

using namespace hpcem;

int main(int argc, char** argv) {
  ArgParser args("hpcem_replay — replay a job trace (trace.hpp CSV layout) "
                 "through the ARCHER2 facility model");
  args.add_option("trace", "", "trace CSV path (required)");
  args.add_option("policy", "baseline",
                  "operating policy: baseline | perfdet | lowfreq");
  args.add_option("intensity", "200",
                  "grid carbon intensity for attribution, gCO2/kWh");
  args.add_option("pad-hours", "24",
                  "simulation tail after the last submission");
  args.add_option("seed", "7", "simulation seed (metering noise)");
  args.add_option("artifact-out", "",
                  "write <basename>.artifact.json/.aggregates.csv with the "
                  "replay results");

  args.set_version(tools::version_line("hpcem_replay"));

  if (!args.parse(argc, argv)) return tools::parse_exit(args);
  if (args.get("trace").empty()) {
    return tools::usage_error(args, "--trace is required");
  }
  if (!tools::int_in_range(args, "seed", 0)) return tools::kExitUsage;

  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_replay");
    const auto policy = policy_from_name(args.get("policy"));
    if (!policy) {
      return tools::usage_error(
          args, "bad --policy (want baseline | perfdet | lowfreq), got: " +
                    args.get("policy"));
    }

    // The baseline spec supplies the machine, and with it the catalogue
    // that names the trace's applications; the trace replaces its
    // workload generator and window.
    ScenarioSpec spec = load_named_scenario("archer2-baseline");
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    spec.policy = *policy;
    const FacilityAssembly assembly(std::move(spec));
    const AppCatalog& catalog = assembly.facility().catalog();

    const auto jobs = read_jobs_file(args.get("trace"), catalog);
    if (jobs.empty()) {
      std::cerr << "error: trace is empty: " << args.get("trace") << '\n';
      return tools::kExitFailure;
    }

    SimTime first = jobs.front().submit_time;
    SimTime last = jobs.front().submit_time;
    for (const auto& j : jobs) {
      first = std::min(first, j.submit_time);
      last = std::max(last, j.submit_time);
    }
    const SimTime end =
        last + Duration::hours(args.get_double("pad-hours"));

    auto sim = assembly.make_simulator();
    sim->run_trace(jobs, first, end);

    std::cout << "Replayed " << jobs.size() << " jobs ("
              << iso_date_time(first) << " .. " << iso_date_time(end)
              << ") under policy '" << args.get("policy") << "'\n"
              << "mean cabinet power: "
              << TextTable::grouped(sim->mean_cabinet_kw(first, end).kw())
              << " kW\n\n";
    std::cout << render_service_metrics(
                     compute_service_metrics(sim->completed()))
              << '\n';
    std::cout << render_usage_breakdown(account_usage(
        sim->completed(), catalog,
        CarbonIntensity::g_per_kwh(args.get_double("intensity"))));

    if (!args.get("artifact-out").empty()) {
      RunArtifact artifact;
      artifact.scenario = args.get("trace");
      artifact.source = "trace-replay";
      artifact.machine = "archer2";
      artifact.window_start = first;
      artifact.window_end = end;
      const PowerKw mean_kw = sim->mean_cabinet_kw(first, end);
      artifact.headline.mean_kw = mean_kw;
      artifact.headline.mean_before_kw = mean_kw;
      artifact.headline.mean_after_kw = mean_kw;
      artifact.headline.mean_utilisation = sim->mean_utilisation(first, end);
      artifact.headline.window_energy_kwh = EnergyKwh{
          sim->telemetry().series(sim->cabinet_channel()).integrate() /
          3600.0};
      artifact.headline.completed_jobs =
          static_cast<double>(sim->completed().size());
      artifact.channels = aggregate_channels(sim->telemetry());
      artifact.obs = collected_obs_metrics();
      std::cout << "\nartifact written: "
                << write_artifact_files(artifact, args.get("artifact-out"))
                << '\n';
    }
    return tools::kExitOk;
  });
}
