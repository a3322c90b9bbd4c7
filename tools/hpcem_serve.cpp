// hpcem_serve: concurrent emissions-query service over stored run
// artifacts.
//
// Loads a store directory into memory and answers NDJSON query requests
// on stdin with one NDJSON response per line on stdout — windowed
// aggregates, emissions-regime splits, perf-per-kWh comparisons and
// carbon what-ifs, without re-running any simulation.  See
// docs/SERVE_SCHEMA.md for the wire format.
//
// Two kinds of file, freely mixed in one directory, one load path:
//   *.hcaf           — compacted binary shards (hpcem_compact), loaded
//                      near-instantly as one store per shard and routed
//                      via the compaction consistent-hash ring;
//   *.artifact.json  — schema v3 JSON artifacts (hpcem_sim --serve-export,
//                      hpcem_replay --artifact-out, hpcem_analyze
//                      --serve-export), each encoded in memory as a
//                      one-artifact shard and read back through the same
//                      shard ingest, into one more store.
// A pre-v3 document, or a channel with samples but no series, fails the
// load with one `error:` line pointing at --serve-export (exit 1).
//
// Responses are byte-deterministic for a given scenario set: the same
// request stream produces the same response bytes for any --workers
// count, any shard count, with the cache on or off.
//
// Examples:
//   hpcem_serve --store runs/ --once '{"op":"list"}'
//   hpcem_serve --store runs/ --requests queries.ndjson > answers.ndjson
//   hpcem_serve --store shards/ --workers 8 < queries.ndjson
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "obs/metrics_export.hpp"
#include "obs/session.hpp"
#include "serve/front.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"

namespace {

using namespace hpcem;

/// Most executor threads --workers may ask for.  It is checked before the
/// pool starts any thread, so a mistyped count fails as a usage error
/// instead of starting thousands of threads.
constexpr long kMaxWorkers = 256;

/// `*.hcaf` shard files directly inside `dir`, sorted for reproducible
/// load order.
std::vector<std::string> shard_paths(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::directory_iterator it(dir, ec);
  if (ec) {
    throw ParseError("hpcem_serve: cannot read directory " + dir + ": " +
                     ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".hcaf") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "hpcem_serve — emissions-query service over stored run artifacts "
      "(NDJSON requests in, NDJSON responses out)");
  args.add_option("store", "",
                  "directory of *.artifact.json and/or *.hcaf files to load "
                  "(required)");
  args.add_option("workers", "4",
                  "executor threads, 1 to " + std::to_string(kMaxWorkers));
  args.add_option("cache-entries", "4096",
                  "result cache capacity (0 disables the cache)");
  args.add_option("max-queue", "256",
                  "pending requests before submit() blocks");
  args.add_option("once", "", "answer this one request JSON and exit");
  args.add_option("requests", "",
                  "read requests from this NDJSON file instead of stdin");
  args.add_flag("no-cache", "disable the result cache");
  args.add_flag("stats", "print serving statistics to stderr at exit");
  args.add_option("postmortem", "",
                  "write a flight-recorder postmortem JSON here on query "
                  "error or latency breach (implies obs collection)");
  args.add_option("slow-ms", "0",
                  "latency postmortem threshold in milliseconds (0 = off; "
                  "wall-clock stamps only)");
  args.add_option("prom-out", "",
                  "write Prometheus text-format metrics here at exit "
                  "(implies obs collection)");

  args.set_version(tools::version_line("hpcem_serve"));
  if (!args.parse(argc, argv)) return tools::parse_exit(args);
  if (args.get("store").empty()) {
    return tools::usage_error(args, "--store is required");
  }
  if (!tools::int_in_range(args, "workers", 1, kMaxWorkers) ||
      !tools::int_in_range(args, "max-queue", 1) ||
      !tools::int_in_range(args, "cache-entries", 0) ||
      !tools::int_in_range(args, "slow-ms", 0)) {
    return tools::kExitUsage;
  }

  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_serve");
    // The telemetry outputs need live collection even without HPCEM_OBS=1
    // (the environment toggles stay authoritative for determinism mode).
    if (!args.get("postmortem").empty() || !args.get("prom-out").empty()) {
      obs::set_enabled(true);
    }

    serve::MultiStore stores;
    std::size_t files = 0;
    try {
      // HCAF shards first, one store per shard: lookups then route via the
      // compaction ring, and the stats per-shard section mirrors the shard
      // files one-to-one.
      for (const std::string& path : shard_paths(args.get("store"))) {
        auto shard = std::make_shared<serve::ArtifactStore>();
        shard->load_hcaf_file(path);
        stores.adopt(std::move(shard));
        ++files;
      }
      auto json_store = std::make_shared<serve::ArtifactStore>();
      const std::size_t json_files =
          json_store->load_directory(args.get("store"));
      if (json_files > 0) {
        stores.adopt(std::move(json_store));
        files += json_files;
      }
    } catch (const serve::DuplicateScenarioError& e) {
      // The store directory itself is inconsistent — that is a usage
      // mistake (pick a different directory or rename a scenario), not a
      // runtime failure of any one file.
      std::cerr << "error: " << e.what() << '\n';
      return tools::kExitUsage;
    }
    if (files == 0) {
      std::cerr << "error: no *.artifact.json or *.hcaf files in "
                << args.get("store") << '\n';
      return tools::kExitFailure;
    }

    serve::ServeOptions options;
    options.workers = static_cast<std::size_t>(args.get_int("workers"));
    options.cache_entries =
        args.get_flag("no-cache")
            ? 0
            : static_cast<std::size_t>(args.get_int("cache-entries"));
    options.max_queue = static_cast<std::size_t>(args.get_int("max-queue"));
    options.postmortem_path = args.get("postmortem");
    options.slow_request_threshold =
        static_cast<std::uint64_t>(args.get_int("slow-ms")) * 1'000'000ULL;
    serve::ServeFront front(stores, options);

    std::size_t served = 0;
    if (!args.get("once").empty()) {
      std::cout << front.handle(args.get("once")) << '\n';
      served = 1;
    } else if (!args.get("requests").empty()) {
      std::ifstream in(args.get("requests"), std::ios::binary);
      if (!in) {
        std::cerr << "error: cannot open " << args.get("requests") << '\n';
        return tools::kExitFailure;
      }
      served = front.serve_stream(in, std::cout);
    } else {
      served = front.serve_stream(std::cin, std::cout);
    }

    if (!args.get("prom-out").empty()) {
      std::ofstream prom(args.get("prom-out"),
                         std::ios::binary | std::ios::trunc);
      if (!prom) {
        std::cerr << "error: cannot write " << args.get("prom-out") << '\n';
        return tools::kExitFailure;
      }
      prom << obs::prometheus_text(obs::metrics_snapshot());
    }

    if (args.get_flag("stats")) {
      const serve::FrontStats s = front.stats();
      std::cerr << "hpcem_serve: " << files << " files, "
                << stores.shard_count() << " stores, "
                << stores.scenario_count() << " scenarios, "
                << stores.total_series_samples() << " series samples | "
                << served << " requests, " << s.evaluations
                << " evaluations, " << s.cache.hits << " cache hits, "
                << s.coalesced << " coalesced, peak queue "
                << s.peak_queue_depth << '\n';
    }
    return tools::kExitOk;
  });
}
