// Load harness for the serving layer: a closed-loop multi-threaded client
// hammering a ServeFront, with and without the result cache.
//
// Each client thread loops over a fixed mix of distinct requests (the
// "working set") against front.handle() — closed loop: the next request
// starts when the previous answer lands.  Phase one runs with the cache
// off, so every request pays a full engine evaluation; phase two runs the
// same request stream with the cache on, so after the first pass the
// working set is served from cached bytes.  The report is throughput and
// p50/p99 latency per phase, plus the cached/cold speedup — the number the
// serve-smoke CI job uploads as a perf point (BENCH_serve_load.json).
//
// Obs collection is on by default (--no-obs for a clean A/B): each phase
// resets the collected shards and reports the serve tier's own per-query-
// kind latency distributions (serve.query.*.ns p50/p95/p99) next to the
// client-side percentiles.
//
// v3 adds the cold-load section: at each --load-sizes store size the bench
// writes the same synthetic artifact as JSON and as an HCAF shard
// (docs/ARTIFACT_BINARY.md), measures the wall time to load each into a
// fresh ArtifactStore (a JSON load is the JSON decode plus an in-memory
// shard encode ahead of the same shard ingest an HCAF load runs), then
// runs a short single-thread query phase against the loaded store —
// cold-load seconds plus p50/p95/p99 per format, and the json/hcaf
// load-time multiplier per size.  --format selects which input formats
// are measured.
//
// Examples:
//   bench_serve_load                                    # synthetic store
//   bench_serve_load --store bench/baselines/serve --threads 8
//   bench_serve_load --load-sizes 4096,16384,65536 --format both
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "colstore/hcaf.hpp"
#include "obs/registry.hpp"
#include "obs/stats.hpp"
#include "serve/front.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace hpcem;

// A deterministic in-memory store: one scenario, one kW channel with a
// diurnal-ish profile.  Used when no --store directory is given, so the
// bench runs standalone (and in CI before any artifacts are committed).
RunArtifact synthetic_artifact(std::size_t samples) {
  RunArtifact a;
  a.scenario = "synthetic";
  a.source = "simulation";
  a.machine = "archer2";
  a.window_start = SimTime(0.0);
  a.window_end = SimTime(static_cast<double>(samples) * 600.0);
  TimeSeries series("kW");
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * 600.0;
    const double day = 2.0 * 3.141592653589793 * t / 86400.0;
    series.append(SimTime(t), 3200.0 + 180.0 * std::sin(day) +
                                  45.0 * std::sin(7.0 * day));
  }
  a.headline.mean_kw = series.summary().mean;
  a.headline.window_energy_kwh = series.integrate() / 3600.0;
  a.headline.completed_jobs = 1000.0;
  a.channels.push_back(
      aggregate_channel("cabinet_kw", series, /*include_series=*/true));
  return a;
}

serve::ArtifactStore synthetic_store(std::size_t samples) {
  serve::ArtifactStore store;
  store.add(synthetic_artifact(samples), "<synthetic>");
  return store;
}

// A piecewise-linear carbon-intensity curve with `points` breakpoints over
// [t0, t1] — the shape of real half-hourly grid settlement data, and the
// cost driver of a what-if (one interpolation per stored sample interval).
std::string intensity_curve_json(double t0, double t1, std::size_t points,
                                 double base) {
  std::string json = "{\"points\":[";
  for (std::size_t k = 0; k < points; ++k) {
    const double f =
        static_cast<double>(k) / static_cast<double>(points - 1);
    const double g =
        base + 60.0 * std::sin(2.0 * 3.141592653589793 * f * 9.0) + 50.0 * f;
    if (k > 0) json += ',';
    json += "[" + std::to_string(t0 + f * (t1 - t0)) + "," +
            std::to_string(g) + "]";
  }
  return json + "]}";
}

// The request working set: distinct windowed aggregates and what-ifs
// (constant and curve re-pricing) over every stored scenario — the
// O(samples) analytics the cache exists to amortize.  Distinct requests
// stop the cache from collapsing the whole phase into one entry;
// repeating the set is what the cache is for.
std::vector<std::string> build_requests(const serve::ArtifactStore& store,
                                        std::size_t count) {
  std::vector<std::string> requests;
  const auto names = store.scenario_names();
  for (std::size_t i = 0; requests.size() < count; ++i) {
    const auto& scenario = store.at(names[i % names.size()]);
    const serve::StoredChannel* channel = nullptr;
    for (const auto& c : scenario.channels) {
      if (c.has_series() && c.unit == "kW") {
        channel = &c;
        break;
      }
    }
    if (channel == nullptr) continue;
    const double t0 = scenario.window_start.sec();
    const double t1 = scenario.window_end.sec();
    const double lo = t0 + (t1 - t0) * 0.05 * static_cast<double>(i % 8);
    switch (i % 3) {
      case 0:
        requests.push_back(
            "{\"op\":\"window_aggregate\",\"scenario\":\"" + scenario.name +
            "\",\"channel\":\"" + channel->name + "\",\"start\":" +
            std::to_string(lo) + ",\"end\":" + std::to_string(t1) + "}");
        break;
      case 1:
        requests.push_back(
            "{\"op\":\"whatif\",\"scenario\":\"" + scenario.name +
            "\",\"channel\":\"" + channel->name + "\",\"intensity\":" +
            intensity_curve_json(t0, t1, 36,
                                40.0 + static_cast<double>(i % 5) * 12.0) +
            "}");
        break;
      default:
        requests.push_back(
            "{\"op\":\"whatif\",\"scenario\":\"" + scenario.name +
            "\",\"channel\":\"" + channel->name +
            "\",\"intensity\":{\"constant_g_per_kwh\":" +
            std::to_string(30 + (i % 7) * 15) + "}}");
        break;
    }
  }
  return requests;
}

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Server-side per-query-kind latency histograms (serve.query.*.ns),
  /// populated when obs collection is on.
  std::vector<obs::HistogramStats> query_kinds;
};

double percentile_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(ns.size() - 1) + 0.5);
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(rank),
                   ns.end());
  return static_cast<double>(ns[rank]) / 1e3;
}

// One closed-loop phase: `threads` clients, each looping over the request
// set `passes` times.  Latency is per-request wall time on the client
// thread (obs::monotonic_now_ns — the sanctioned monotonic clock).
PhaseResult run_phase(const serve::ArtifactStore& store,
                      serve::ServeOptions options,
                      const std::vector<std::string>& requests,
                      std::size_t threads, std::size_t passes) {
  // Fresh obs shards per phase, so the per-kind histograms below describe
  // exactly this phase's traffic.
  obs::reset_collected();
  serve::MultiStore stores;
  stores.attach(store);
  serve::ServeFront front(stores, options);
  // Per-thread latency vectors: no shared mutable state inside the loop.
  std::vector<std::vector<std::uint64_t>> latencies(threads);
  std::vector<std::thread> clients;
  clients.reserve(threads);
  const std::uint64_t phase_start = obs::monotonic_now_ns();
  for (std::size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      auto& lat = latencies[c];
      lat.reserve(passes * requests.size());
      for (std::size_t p = 0; p < passes; ++p) {
        // Stagger thread start offsets so clients collide on different
        // keys first, then converge — exercises coalescing and sharding.
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const auto& line = requests[(i + c * 3) % requests.size()];
          const std::uint64_t t0 = obs::monotonic_now_ns();
          const std::string response = front.handle(line);
          lat.push_back(obs::monotonic_now_ns() - t0);
          if (response.size() < 2) std::abort();  // keep the call alive
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const std::uint64_t phase_ns = obs::monotonic_now_ns() - phase_start;

  PhaseResult r;
  std::vector<std::uint64_t> all;
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  r.requests = all.size();
  r.seconds = static_cast<double>(phase_ns) / 1e9;
  r.rps = r.seconds > 0.0 ? static_cast<double>(r.requests) / r.seconds
                          : 0.0;
  r.p50_us = percentile_us(all, 0.50);
  r.p95_us = percentile_us(all, 0.95);
  r.p99_us = percentile_us(all, 0.99);
  if (obs::enabled()) {
    // Clients are joined: the shards are quiescent, the merge exact.
    const obs::StatsSnapshot snap = obs::StatsRegistry::snapshot();
    for (const obs::HistogramStats& h : snap.histograms) {
      constexpr std::string_view kPrefix = "serve.query.";
      if (h.name.rfind(kPrefix, 0) == 0 && h.count > 0) {
        r.query_kinds.push_back(h);
      }
    }
  }
  return r;
}

JsonValue phase_json(const std::string& name, const PhaseResult& r) {
  JsonValue o = JsonValue::object();
  o.set("name", name);
  o.set("requests", r.requests == 0 ? JsonValue(0)
                                    : JsonValue(static_cast<std::size_t>(
                                          r.requests)));
  o.set("seconds", r.seconds);
  o.set("requests_per_second", r.rps);
  o.set("p50_us", r.p50_us);
  o.set("p95_us", r.p95_us);
  o.set("p99_us", r.p99_us);
  JsonValue kinds = JsonValue::array();
  for (const obs::HistogramStats& h : r.query_kinds) {
    // "serve.query.whatif.ns" -> "whatif"; histograms record ns, the
    // report speaks microseconds like the client-side percentiles.
    std::string kind = h.name.substr(std::string("serve.query.").size());
    const std::size_t dot = kind.rfind(".ns");
    if (dot != std::string::npos) kind.resize(dot);
    JsonValue k = JsonValue::object();
    k.set("kind", kind);
    k.set("count", static_cast<std::size_t>(h.count));
    k.set("p50_us", h.p50 / 1e3);
    k.set("p95_us", h.p95 / 1e3);
    k.set("p99_us", h.p99 / 1e3);
    kinds.push_back(std::move(k));
  }
  o.set("query_kinds", std::move(kinds));
  return o;
}

/// One cold-load measurement: store size x ingestion format.
struct ColdLoad {
  std::size_t samples = 0;
  std::string format;        ///< "json" | "hcaf"
  std::uint64_t file_bytes = 0;
  double load_seconds = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Measure one (size, format) cell: write the synthetic artifact in
/// `format` under `scratch`, load it into a fresh store (the measured
/// wall time), then run a short single-thread cache-off phase for the
/// post-load latency percentiles.
ColdLoad measure_cold_load(std::size_t samples, const std::string& format,
                           const std::filesystem::path& scratch) {
  const RunArtifact artifact = synthetic_artifact(samples);
  const std::string base =
      (scratch / ("cold-" + std::to_string(samples))).string();

  ColdLoad r;
  r.samples = samples;
  r.format = format;
  serve::ArtifactStore store;
  if (format == "hcaf") {
    const std::string path = base + ".hcaf";
    colstore::write_shard_file({artifact}, path);
    r.file_bytes = std::filesystem::file_size(path);
    const std::uint64_t t0 = obs::monotonic_now_ns();
    (void)store.load_hcaf_file(path);
    r.load_seconds =
        static_cast<double>(obs::monotonic_now_ns() - t0) / 1e9;
  } else {
    const std::string path = write_artifact_files(artifact, base);
    r.file_bytes = std::filesystem::file_size(path);
    const std::uint64_t t0 = obs::monotonic_now_ns();
    store.load_file(path);
    r.load_seconds =
        static_cast<double>(obs::monotonic_now_ns() - t0) / 1e9;
  }

  serve::ServeOptions cold;
  cold.cache_entries = 0;
  cold.workers = 1;
  const PhaseResult phase =
      run_phase(store, cold, build_requests(store, 12), 1, 2);
  r.p50_us = phase.p50_us;
  r.p95_us = phase.p95_us;
  r.p99_us = phase.p99_us;
  return r;
}

JsonValue cold_load_json(const ColdLoad& r) {
  JsonValue o = JsonValue::object();
  o.set("samples", r.samples);
  o.set("format", r.format);
  o.set("file_bytes", static_cast<std::size_t>(r.file_bytes));
  o.set("load_seconds", r.load_seconds);
  o.set("p50_us", r.p50_us);
  o.set("p95_us", r.p95_us);
  o.set("p99_us", r.p99_us);
  return o;
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      sizes.push_back(static_cast<std::size_t>(std::stoull(tok)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "bench_serve_load — closed-loop serving-layer load generator "
      "(cache-off vs cache-on throughput and latency)");
  args.add_option("store", "",
                  "artifact directory to serve (default: synthetic store)");
  args.add_option("threads", "8", "client threads");
  args.add_option("working-set", "48", "distinct requests in the mix");
  args.add_option("passes", "6", "passes over the working set per thread");
  args.add_option("samples", "4096", "synthetic store series length");
  args.add_option("out", "BENCH_serve_load.json", "JSON report path");
  args.add_option("format", "both",
                  "cold-load ingestion paths to measure: json | hcaf | both "
                  "(empty skips the cold-load section)");
  args.add_option("load-sizes", "4096,16384,65536",
                  "store sizes (series samples) for the cold-load section");
  args.add_option("scratch", "BENCH_serve_load.scratch",
                  "scratch directory for cold-load artifact files");
  args.add_flag("no-obs",
                "disable obs collection (drops the per-query-kind latency "
                "section; for telemetry-overhead A/B runs)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n' << args.usage();
    return args.error().empty() ? 0 : 2;
  }

  if (!args.get_flag("no-obs")) obs::set_enabled(true);

  serve::ArtifactStore store;
  if (args.get("store").empty()) {
    store = synthetic_store(
        static_cast<std::size_t>(args.get_int("samples")));
  } else {
    store.load_directory(args.get("store"));
    if (store.scenario_count() == 0) {
      std::cerr << "error: no artifacts in " << args.get("store") << '\n';
      return 1;
    }
  }

  const auto threads = static_cast<std::size_t>(args.get_int("threads"));
  const auto passes = static_cast<std::size_t>(args.get_int("passes"));
  const auto requests = build_requests(
      store, static_cast<std::size_t>(args.get_int("working-set")));
  if (requests.empty()) {
    std::cerr << "error: no kW series channels in the store — nothing to "
                 "benchmark\n";
    return 1;
  }

  serve::ServeOptions cold;
  cold.cache_entries = 0;  // every request pays a full evaluation
  serve::ServeOptions hot;  // defaults: cache on

  std::cout << "bench_serve_load: " << store.scenario_count()
            << " scenarios, " << store.total_series_samples()
            << " series samples, " << requests.size()
            << " distinct requests, " << threads << " threads x " << passes
            << " passes\n";

  // Warm the allocator/engine once so the cold phase measures evaluation,
  // not first-touch effects.
  (void)run_phase(store, cold, requests, 1, 1);

  const PhaseResult cold_r =
      run_phase(store, cold, requests, threads, passes);
  const PhaseResult hot_r = run_phase(store, hot, requests, threads, passes);
  const double speedup =
      cold_r.rps > 0.0 ? hot_r.rps / cold_r.rps : 0.0;

  std::cout << "cache off: " << static_cast<std::uint64_t>(cold_r.rps)
            << " req/s, p50 " << cold_r.p50_us << " us, p99 "
            << cold_r.p99_us << " us\n"
            << "cache on:  " << static_cast<std::uint64_t>(hot_r.rps)
            << " req/s, p50 " << hot_r.p50_us << " us, p99 " << hot_r.p99_us
            << " us\n"
            << "cached speedup: " << speedup << "x\n";

  // Cold-load matrix: sizes x formats.  The headline multiplier (reported
  // to stdout and as "hcaf_cold_load_speedup") is json/hcaf load seconds
  // at the LARGEST size — the regime the ROADMAP north star cares about.
  const std::string format = args.get("format");
  std::vector<ColdLoad> cold_loads;
  double hcaf_speedup = 0.0;
  if (!format.empty()) {
    if (format != "json" && format != "hcaf" && format != "both") {
      std::cerr << "error: --format must be json, hcaf or both\n";
      return 2;
    }
    const std::filesystem::path scratch(args.get("scratch"));
    std::filesystem::create_directories(scratch);
    std::vector<std::size_t> sizes = parse_sizes(args.get("load-sizes"));
    std::sort(sizes.begin(), sizes.end());
    for (const std::size_t size : sizes) {
      double json_s = 0.0;
      double hcaf_s = 0.0;
      if (format != "hcaf") {
        cold_loads.push_back(measure_cold_load(size, "json", scratch));
        json_s = cold_loads.back().load_seconds;
      }
      if (format != "json") {
        cold_loads.push_back(measure_cold_load(size, "hcaf", scratch));
        hcaf_s = cold_loads.back().load_seconds;
      }
      if (json_s > 0.0 && hcaf_s > 0.0) {
        hcaf_speedup = json_s / hcaf_s;
        std::cout << "cold load " << size << " samples: json " << json_s
                  << " s, hcaf " << hcaf_s << " s (" << hcaf_speedup
                  << "x)\n";
      }
    }
  }

  JsonValue report = JsonValue::object();
  report.set("schema", "hpcem.bench_serve_load.v3");
  report.set("threads", threads);
  report.set("passes", passes);
  report.set("working_set", requests.size());
  report.set("scenarios", store.scenario_count());
  report.set("series_samples", store.total_series_samples());
  JsonValue phases = JsonValue::array();
  phases.push_back(phase_json("cache_off", cold_r));
  phases.push_back(phase_json("cache_on", hot_r));
  report.set("phases", phases);
  report.set("cached_speedup", speedup);
  JsonValue cold_section = JsonValue::array();
  for (const ColdLoad& c : cold_loads) {
    cold_section.push_back(cold_load_json(c));
  }
  report.set("cold_load", std::move(cold_section));
  report.set("hcaf_cold_load_speedup", hcaf_speedup);

  std::ofstream out(args.get("out"));
  if (!out) {
    std::cerr << "error: cannot write " << args.get("out") << '\n';
    return 1;
  }
  out << report.dump(2) << '\n';
  std::cout << "report written: " << args.get("out") << '\n';
  return 0;
}
