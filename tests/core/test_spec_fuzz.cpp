// Seeded property-based fuzzer for the scenario-spec codec.
//
// Two properties, each over randomly generated *valid* specs:
//
//   1. Round-trip fixed point.  For any representable spec,
//      scenario_from_json(scenario_to_json(spec)) == spec and
//      save_scenario(parse_scenario(text)) == text — the codec is an
//      exact bijection between structs and canonical documents.
//
//   2. End-to-end determinism.  Driving one spec through
//      sim -> artifact -> serve twice yields byte-identical artifact
//      JSON and byte-identical serve responses.
//
// The case count scales with HPCEM_SPEC_FUZZ_CASES (default 50; CI runs
// 200 under ASan/UBSan).  Every case derives from a fixed master seed,
// so a failure reproduces by number.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/run_artifact.hpp"
#include "core/spec_io.hpp"
#include "serve/query.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

constexpr std::uint64_t kMasterSeed = 0x5EEDF022ULL;

std::size_t fuzz_cases() {
  if (const char* env = std::getenv("HPCEM_SPEC_FUZZ_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 50;
}

// ---------------------------------------------------------------------------
// Random valid-spec generator.  Everything drawn here is legal by
// construction; the properties then assert the codec never loses it.

std::string random_name(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-_.";
  const std::size_t len =
      static_cast<std::size_t>(rng.uniform_int(1, 24));
  std::string name;
  for (std::size_t i = 0; i < len; ++i) {
    name += kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
  }
  return name;
}

OperatingPolicy random_policy(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return OperatingPolicy::baseline();
    case 1: return OperatingPolicy::performance_determinism();
    case 2: return OperatingPolicy::low_frequency_default();
    default: break;
  }
  OperatingPolicy p;
  p.bios_mode = rng.bernoulli(0.5) ? DeterminismMode::kPowerDeterminism
                                   : DeterminismMode::kPerformanceDeterminism;
  // A legal p-state: 1.5 / 2.0 / 2.25, turbo only at 2.25.
  switch (rng.uniform_int(0, 3)) {
    case 0: p.default_pstate = {Frequency::ghz(1.5), false}; break;
    case 1: p.default_pstate = {Frequency::ghz(2.0), false}; break;
    case 2: p.default_pstate = {Frequency::ghz(2.25), false}; break;
    default: p.default_pstate = {Frequency::ghz(2.25), true}; break;
  }
  p.auto_revert_enabled = rng.bernoulli(0.5);
  p.revert_threshold = rng.uniform(0.0, 0.5);
  return p;
}

SimTime random_time(Rng& rng) {
  // Mix whole dates, whole minutes and raw fractional instants so every
  // branch of the time codec (ISO date, hh:mm, hh:mm:ss, epoch) is hit.
  const double base =
      sim_time_from_date({2021 + static_cast<int>(rng.uniform_int(0, 2)),
                          static_cast<int>(rng.uniform_int(1, 12)),
                          static_cast<int>(rng.uniform_int(1, 28))})
          .sec();
  switch (rng.uniform_int(0, 3)) {
    case 0: return SimTime(base);
    case 1: return SimTime(base + 60.0 * static_cast<double>(rng.uniform_int(0, 1439)));
    case 2: return SimTime(base + static_cast<double>(rng.uniform_int(0, 86399)));
    default: return SimTime(base + rng.uniform(0.0, 86400.0));
  }
}

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.name = random_name(rng);
  spec.machine = static_cast<MachineModel>(rng.uniform_int(0, 2));
  spec.window_start = random_time(rng);
  spec.window_end =
      spec.window_start + Duration::days(rng.uniform(0.5, 90.0));
  spec.warmup = rng.bernoulli(0.5)
                    ? Duration::days(static_cast<double>(rng.uniform_int(0, 30)))
                    : Duration::seconds(rng.uniform(0.0, 1e6));
  spec.seed = static_cast<std::uint64_t>(
      rng.uniform_int(0, (1LL << 53) - 1));
  spec.policy = random_policy(rng);

  const int n_changes = static_cast<int>(rng.uniform_int(0, 3));
  SimTime at = spec.window_start;
  for (int i = 0; i < n_changes; ++i) {
    at = at + Duration::days(rng.uniform(0.1, 10.0));
    spec.changes.push_back({at, random_policy(rng)});
  }
  if (rng.bernoulli(0.3)) {
    const SimTime from =
        spec.window_start + Duration::days(rng.uniform(0.0, 10.0));
    spec.maintenance.push_back(
        {from, from + Duration::hours(rng.uniform(1.0, 48.0))});
  }

  if (rng.bernoulli(0.5)) {
    spec.discipline = QueueDiscipline::kPriority;
    if (rng.bernoulli(0.5)) {
      spec.weights.standard = rng.uniform(0.0, 5000.0);
      spec.weights.per_wait_hour = rng.uniform(0.0, 500.0);
    }
  }

  if (rng.bernoulli(0.3)) {
    spec.sample_interval = Duration::seconds(static_cast<double>(rng.uniform_int(30, 3600)));
  }
  if (rng.bernoulli(0.3)) {
    spec.metering_noise_sigma = rng.uniform(0.0, 50.0);
  }
  if (rng.bernoulli(0.3)) spec.offered_load = rng.uniform(0.1, 2.0);
  if (rng.bernoulli(0.3)) {
    spec.user_turbo_pin_fraction = rng.uniform(0.0, 1.0);
  }

  if (rng.bernoulli(0.3)) spec.model_cdus = true;
  if (rng.bernoulli(0.3)) spec.model_filesystems = true;
  if (rng.bernoulli(0.3)) spec.cooling_outdoor_c = rng.uniform(-5.0, 35.0);
  if (rng.bernoulli(0.2)) {
    spec.idle_policy.suspend_enabled = true;
    spec.idle_policy.suspended = Power::watts(rng.uniform(10.0, 100.0));
    spec.idle_policy.suspendable_fraction = rng.uniform(0.0, 1.0);
  }

  if (rng.bernoulli(0.4)) {
    GridIntensitySeries grid;
    if (rng.bernoulli(0.5)) {
      grid.constant = CarbonIntensity::g_per_kwh(rng.uniform(0.0, 500.0));
    } else {
      double t = spec.window_start.sec();
      const int n = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < n; ++i) {
        grid.points.emplace_back(t, rng.uniform(0.0, 500.0));
        t += rng.uniform(3600.0, 864000.0);
      }
    }
    spec.grid = grid;
  }
  if (rng.bernoulli(0.3)) {
    EmbodiedParams e;
    e.total = CarbonMass::tonnes(rng.uniform(100.0, 20000.0));
    e.lifetime_years = rng.uniform(1.0, 10.0);
    spec.scope3 = e;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Property 1: spec -> parse -> save -> parse is a fixed point.

TEST(SpecFuzz, RoundTripFixedPoint) {
  const std::size_t cases = fuzz_cases();
  Rng master(kMasterSeed);
  for (std::size_t i = 0; i < cases; ++i) {
    Rng rng = master.split();
    SCOPED_TRACE("case " + std::to_string(i));
    const ScenarioSpec spec = random_spec(rng);

    // Struct identity through the JSON document.
    const JsonValue j = scenario_to_json(spec);
    const ScenarioSpec back = scenario_from_json(j);
    ASSERT_TRUE(back == spec) << save_scenario(spec);

    // Text fixed point through the canonical rendering.
    const std::string text = save_scenario(spec);
    const ScenarioSpec reparsed = parse_scenario(text);
    ASSERT_TRUE(reparsed == spec) << text;
    ASSERT_EQ(save_scenario(reparsed), text);
  }
}

// ---------------------------------------------------------------------------
// Property 2: spec -> sim -> artifact -> serve is deterministic.  Micro
// machine, short window: each end-to-end case simulates twice and compares
// bytes at the artifact and response layers.

TEST(SpecFuzz, SimArtifactServeDeterminism) {
  // One end-to-end pair per ~25 round-trip cases, at least 2.
  const std::size_t cases = std::max<std::size_t>(2, fuzz_cases() / 25);
  Rng master(kMasterSeed ^ 0xD15EA5EULL);
  for (std::size_t i = 0; i < cases; ++i) {
    Rng rng = master.split();
    SCOPED_TRACE("case " + std::to_string(i));

    ScenarioSpec spec = random_spec(rng);
    spec.machine = MachineModel::kMicro;
    spec.window_end = spec.window_start + Duration::days(2.0);
    spec.warmup = Duration::days(0.5);
    spec.changes.clear();
    spec.maintenance.clear();
    spec.offered_load.reset();  // keep the micro run cheap and occupied
    spec.sample_interval = Duration::minutes(15.0);

    // The serve ingest path wants the canonical document, exactly as a
    // committed scenario would arrive.
    const ScenarioSpec loaded = parse_scenario(save_scenario(spec));
    ASSERT_TRUE(loaded == spec);

    const auto run_once = [&loaded]() {
      const FacilityAssembly assembly(loaded);
      const auto sim = assembly.run_simulator();
      const TimelineResult result = analyze_timeline(*sim, loaded);
      RunArtifact artifact = make_run_artifact(*sim, loaded, result);
      artifact.channels =
          aggregate_channels(sim->telemetry(), /*include_series=*/true);
      return artifact.to_json_text();
    };

    const std::string first = run_once();
    const std::string second = run_once();
    ASSERT_EQ(first, second) << "artifact bytes diverged for spec:\n"
                             << save_scenario(loaded);

    // Serve the artifact and answer a spec-override what-if: byte-equal
    // responses across two independent store/engine stacks.
    const auto serve_once = [&](const std::string& artifact_text) {
      serve::ArtifactStore store;
      store.add(RunArtifact::from_json_text(artifact_text));
      serve::MultiStore stores;
      stores.attach(store);
      const serve::QueryEngine engine(stores);
      std::string out;
      out += engine.handle_line(R"({"op":"list"})");
      out += '\n';
      out += engine.handle_line(
          R"({"op":"whatif","scenario":")" + loaded.name +
          R"(","channel":"cabinet_kw",)"
          R"("spec":{"grid":{"constant_g_per_kwh":120},)"
          R"("scope3":{"total_tonnes":120,"lifetime_years":6}}})");
      return out;
    };
    ASSERT_EQ(serve_once(first), serve_once(second));
  }
}

}  // namespace
}  // namespace hpcem
