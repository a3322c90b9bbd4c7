// Scenario spec codec: per-field schema-violation fixtures asserting the
// exact one-line error, round-trip goldens over the whole committed
// library, and the campaign-manifest / serve-override fragments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/scenario_library.hpp"
#include "core/spec_io.hpp"

namespace hpcem {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

/// Assert that parsing `text` fails with exactly `expected` — the one-line
/// diagnostic contract of docs/SCENARIO_SCHEMA.md.
void expect_spec_error(const std::string& text, const std::string& expected) {
  try {
    (void)parse_scenario(text);
    FAIL() << "expected ParseError: " << expected;
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), expected) << "for input: " << text;
  }
}

/// A minimal valid document with `extra` members spliced in before the
/// closing brace (pass e.g. `,"seed":-1`).
std::string doc(const std::string& extra = "") {
  return R"({"spec_version":1,"name":"t","machine":"micro",)"
         R"("window":{"start":"2022-06-01","end":"2022-06-03"})" +
         extra + "}";
}

// ---------------------------------------------------------------------------
// Exact schema-violation diagnostics, one fixture per field family.

TEST(SpecErrors, VersionGate) {
  expect_spec_error(R"({"name":"t"})",
                    "spec: $.spec_version: missing required member");
  expect_spec_error(R"({"spec_version":2,"name":"t"})",
                    "spec: $.spec_version: unsupported version 2 (expected 1)");
  expect_spec_error(R"({"spec_version":"1"})",
                    "spec: $.spec_version: expected a number, got a string");
}

TEST(SpecErrors, UnknownMembersNamedInDocumentOrder) {
  expect_spec_error(doc(R"(,"frequency":2.0)"),
                    "spec: $.frequency: unknown member");
  expect_spec_error(doc(R"(,"scheduler":{"discipline":"fifo","qos":1})"),
                    "spec: $.scheduler.qos: unknown member");
  // The simulator never modelled a wake latency, so the spec has no key
  // for one.
  expect_spec_error(
      doc(R"(,"plant":{"idle":{"suspend_enabled":true,"wake_latency_min":3}})"),
      "spec: $.plant.idle.wake_latency_min: unknown member");
}

TEST(SpecErrors, Name) {
  expect_spec_error(R"({"spec_version":1,"machine":"micro"})",
                    "spec: $.name: missing required member");
  expect_spec_error(
      R"({"spec_version":1,"name":"","machine":"micro"})",
      "spec: $.name: must not be empty");
  expect_spec_error(
      R"({"spec_version":1,"name":7,"machine":"micro"})",
      "spec: $.name: expected a string, got a number");
}

TEST(SpecErrors, Machine) {
  expect_spec_error(
      R"({"spec_version":1,"name":"t","machine":"cray"})",
      "spec: $.machine: unknown machine 'cray' (archer2 | testbed | micro)");
  expect_spec_error(R"({"spec_version":1,"name":"t"})",
                    "spec: $.machine: missing required member");
}

TEST(SpecErrors, Window) {
  expect_spec_error(R"({"spec_version":1,"name":"t","machine":"micro"})",
                    "spec: $.window: missing required member");
  expect_spec_error(
      R"({"spec_version":1,"name":"t","machine":"micro",)"
      R"("window":{"start":"2022-06-03","end":"2022-06-01"}})",
      "spec: $.window: end must follow start");
  expect_spec_error(
      R"({"spec_version":1,"name":"t","machine":"micro",)"
      R"("window":{"start":"never","end":"2022-06-01"}})",
      "spec: $.window.start: bad date-time 'never'");
  expect_spec_error(
      R"({"spec_version":1,"name":"t","machine":"micro",)"
      R"("window":{"start":"2022-06-01"}})",
      "spec: $.window.end: missing required member");
}

TEST(SpecErrors, SeedMustBeExactInteger) {
  const std::string why = "spec: $.seed: must be an integer in [0, 2^53)";
  expect_spec_error(doc(R"(,"seed":-1)"), why);
  expect_spec_error(doc(R"(,"seed":1.5)"), why);
  expect_spec_error(doc(R"(,"seed":9007199254740992)"), why);
  expect_spec_error(doc(R"(,"seed":"7")"),
                    "spec: $.seed: expected a number, got a string");
}

TEST(SpecErrors, Policy) {
  expect_spec_error(
      doc(R"(,"policy":"eco")"),
      "spec: $.policy: unknown policy 'eco' (baseline | perfdet | lowfreq)");
  expect_spec_error(
      doc(R"(,"policy":{"bios":"power","default_ghz":1.8})"),
      "spec: $.policy.default_ghz: not an ARCHER2 p-state "
      "(1.5 | 2.0 | 2.25; turbo only at 2.25)");
  expect_spec_error(
      doc(R"(,"policy":{"bios":"power","default_ghz":2.0,"turbo":true})"),
      "spec: $.policy.default_ghz: not an ARCHER2 p-state "
      "(1.5 | 2.0 | 2.25; turbo only at 2.25)");
  expect_spec_error(
      doc(R"(,"policy":{"bios":"eco","default_ghz":2.0})"),
      "spec: $.policy.bios: unknown BIOS mode 'eco' (power | performance)");
  expect_spec_error(doc(R"(,"policy":{"default_ghz":2.0})"),
                    "spec: $.policy.bios: missing required member");
}

TEST(SpecErrors, WarmupConflictsAndSign) {
  expect_spec_error(doc(R"(,"warmup_days":1,"warmup_s":60)"),
                    "spec: $.warmup_days: conflicts with warmup_s");
  expect_spec_error(doc(R"(,"warmup_days":-1)"),
                    "spec: $.warmup_days: must be non-negative");
}

TEST(SpecErrors, Scheduler) {
  expect_spec_error(
      doc(R"(,"scheduler":{"discipline":"sjf"})"),
      "spec: $.scheduler.discipline: unknown discipline 'sjf' "
      "(fifo | priority)");
  expect_spec_error(doc(R"(,"scheduler":{})"),
                    "spec: $.scheduler.discipline: missing required member");
}

TEST(SpecErrors, Overrides) {
  expect_spec_error(
      doc(R"(,"overrides":{"user_turbo_pin_fraction":1.5})"),
      "spec: $.overrides.user_turbo_pin_fraction: must be in [0,1]");
  expect_spec_error(
      doc(R"(,"overrides":{"telemetry_max_raw_samples":1})"),
      "spec: $.overrides.telemetry_max_raw_samples: unknown member");
  expect_spec_error(doc(R"(,"overrides":{"sample_interval_s":0})"),
                    "spec: $.overrides.sample_interval_s: must be positive");
}

TEST(SpecErrors, Grid) {
  expect_spec_error(
      doc(R"(,"grid":{})"),
      "spec: $.grid: exactly one of constant_g_per_kwh or points is "
      "required");
  expect_spec_error(
      doc(R"(,"grid":{"constant_g_per_kwh":50,"points":[[0,1]]})"),
      "spec: $.grid: exactly one of constant_g_per_kwh or points is "
      "required");
  expect_spec_error(
      doc(R"(,"grid":{"points":[[10,50],[10,60]]})"),
      "spec: $.grid.points[1][0]: breakpoints must be strictly time-sorted");
  expect_spec_error(doc(R"(,"grid":{"points":[]})"),
                    "spec: $.grid.points: must not be empty");
  expect_spec_error(doc(R"(,"grid":{"constant_g_per_kwh":-1})"),
                    "spec: $.grid.constant_g_per_kwh: must be non-negative");
}

TEST(SpecErrors, Scope3) {
  expect_spec_error(doc(R"(,"scope3":{"total_tonnes":100})"),
                    "spec: $.scope3.lifetime_years: missing required member");
  expect_spec_error(
      doc(R"(,"scope3":{"total_tonnes":0,"lifetime_years":6})"),
      "spec: $.scope3.total_tonnes: must be positive");
}

TEST(SpecErrors, ParseErrorsCarryLineAndColumn) {
  expect_spec_error("", "spec: json: unexpected end of input at line 1, "
                        "column 1");
  expect_spec_error("{\n  \"spec_version\": 1,\n  oops\n}",
                    "spec: json: expected '\"' at line 3, column 3");
}

TEST(SpecErrors, FileErrorsNameTheFile) {
  try {
    (void)load_scenario_file("/nonexistent/nope.json");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec: /nonexistent/nope.json: cannot open file");
  }
}

TEST(SpecErrors, DirectoryIsNotAReadableFile) {
  // A directory opens as a stream but has no bytes to read: it must get
  // the same one-line error as a missing file, not a JSON parse error.
  const std::string dir = scenario_library_dir();
  try {
    (void)load_scenario_file(dir);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "spec: " + dir + ": cannot open file");
  }
  try {
    (void)load_campaign_manifest(dir);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "manifest: " + dir + ": cannot open file");
  }
}

// ---------------------------------------------------------------------------
// Round-trip goldens over the whole committed library.

TEST(SpecLibrary, AllCommittedScenariosRoundTripExactly) {
  const std::string dir = scenario_library_dir();
  const std::vector<std::string> files = list_scenario_files(dir);
  ASSERT_GE(files.size(), 15u) << "committed scenario library shrank";

  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const ScenarioSpec spec = load_scenario_file(path);
    EXPECT_FALSE(spec.name.empty());

    // Struct identity: spec -> JSON -> spec is exact.
    const std::string text = save_scenario(spec);
    const ScenarioSpec reparsed = parse_scenario(text);
    EXPECT_TRUE(reparsed == spec);

    // Text fixed point: the canonical rendering re-parses to itself.
    EXPECT_EQ(save_scenario(reparsed), text);
  }
}

TEST(SpecLibrary, ListIsSortedAndJsonOnly) {
  const auto files = list_scenario_files(scenario_library_dir());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_TRUE(files[i].ends_with(".json")) << files[i];
    if (i > 0) {
      EXPECT_LT(files[i - 1], files[i]);
    }
  }
}

TEST(SpecLibrary, NamedScenarioLoads) {
  const ScenarioSpec fig1 = load_named_scenario("figure1");
  EXPECT_EQ(fig1.name, "figure1-baseline");
  EXPECT_EQ(fig1.machine, MachineModel::kArcher2);
  EXPECT_EQ(fig1.seed, 0x5EEDu);
}

TEST(SpecLibrary, EveryCommittedScenarioAssembles) {
  for (const std::string& path :
       list_scenario_files(scenario_library_dir())) {
    SCOPED_TRACE(path);
    const ScenarioSpec spec = load_scenario_file(path);
    // FacilityAssembly runs the semantic validation layer beneath the
    // schema (warmup sign, maintenance ordering, override ranges, ...).
    EXPECT_NO_THROW(FacilityAssembly assembly(spec));
  }
}

// ---------------------------------------------------------------------------
// Canonical rendering details.

TEST(SpecCanonical, NamedPoliciesCollapse) {
  ScenarioSpec spec = load_named_scenario("figure3");
  const std::string text = save_scenario(spec);
  EXPECT_NE(text.find("\"policy\": \"perfdet\""), std::string::npos);
  EXPECT_NE(text.find("\"lowfreq\""), std::string::npos);
}

TEST(SpecCanonical, CommentsAreAllowedInSpecFilesOnly) {
  const ScenarioSpec spec = parse_scenario(
      "// leading comment\n"
      "{\"spec_version\": 1, /* inline */ \"name\": \"c\",\n"
      " \"machine\": \"micro\",\n"
      " \"window\": {\"start\": \"2022-06-01\", \"end\": \"2022-06-03\"}}\n");
  EXPECT_EQ(spec.name, "c");
  // The strict artifact/wire parser still rejects comments.
  EXPECT_THROW((void)JsonValue::parse("// nope\n{}"), ParseError);
}

TEST(SpecCanonical, TimesPreferIsoAndFallBackToEpoch) {
  ScenarioSpec spec = load_named_scenario("ci-smoke");
  spec.window_start = sim_time_from_date({2022, 6, 1});
  spec.window_end = SimTime(spec.window_start.sec() + 0.125);  // not ISO
  const std::string text = save_scenario(spec);
  EXPECT_NE(text.find("\"start\": \"2022-06-01\""), std::string::npos);
  EXPECT_TRUE(parse_scenario(text) == spec);  // epoch fallback is exact
}

TEST(SpecCanonical, DefaultSectionsAreOmitted) {
  ScenarioSpec spec;
  spec.name = "d";
  spec.machine = MachineModel::kMicro;
  spec.window_start = sim_time_from_date({2022, 6, 1});
  spec.window_end = sim_time_from_date({2022, 6, 3});
  const std::string text = save_scenario(spec);
  for (const char* absent : {"\"scheduler\"", "\"overrides\"", "\"plant\"",
                             "\"grid\"", "\"scope3\"", "\"changes\"",
                             "\"maintenance\""}) {
    EXPECT_EQ(text.find(absent), std::string::npos) << absent;
  }
}

// ---------------------------------------------------------------------------
// Serve override fragment.

TEST(SpecOverridesFragment, ParsesGridAndScope3) {
  const JsonValue v = JsonValue::parse(
      R"({"grid":{"constant_g_per_kwh":120},)"
      R"("scope3":{"total_tonnes":1200,"lifetime_years":4}})");
  const SpecOverrides o = spec_overrides_from_json(v);
  ASSERT_TRUE(o.grid.has_value());
  ASSERT_TRUE(o.grid->constant.has_value());
  EXPECT_DOUBLE_EQ(o.grid->constant->gkwh(), 120.0);
  ASSERT_TRUE(o.scope3.has_value());
  EXPECT_DOUBLE_EQ(o.scope3->total.t(), 1200.0);
  EXPECT_DOUBLE_EQ(o.scope3->lifetime_years, 4.0);
}

TEST(SpecOverridesFragment, ErrorsCarrySpecRootedPaths) {
  try {
    (void)spec_overrides_from_json(
        JsonValue::parse(R"({"grid":{"points":[[5,1],[4,1]]}})"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec: $.spec.grid.points[1][0]: breakpoints must be "
              "strictly time-sorted");
  }
  try {
    (void)spec_overrides_from_json(JsonValue::parse(R"({"policy":"eco"})"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "spec: $.spec.policy: unknown member");
  }
}

// ---------------------------------------------------------------------------
// Campaign manifests.

TEST(CampaignManifest, PaperFiguresManifestLoads) {
  const std::string path =
      scenario_library_dir() + "/campaigns/paper-figures.json";
  const CampaignManifest m = load_campaign_manifest(path);
  ASSERT_EQ(m.specs.size(), 3u);
  EXPECT_EQ(m.specs[0].name, "figure1-baseline");
  EXPECT_EQ(m.specs[1].name, "figure2-bios-change");
  EXPECT_EQ(m.specs[2].name, "figure3-frequency-change");
  EXPECT_EQ(m.spec_files.size(), 3u);
  EXPECT_EQ(m.config.seeds_per_scenario, 1u);
}

TEST(CampaignManifest, ErrorsNameManifestAndPath) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hpcem_spec_io_manifest_test";
  fs::create_directories(dir);
  const std::string bad = (dir / "bad.json").string();
  {
    std::ofstream out(bad);
    out << R"({"manifest_version":1,"specs":[]})";
  }
  try {
    (void)load_campaign_manifest(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "manifest: " + bad +
                  ": $.specs: expected a non-empty array of spec paths");
  }
  {
    std::ofstream out(bad);
    out << R"({"specs":["x.json"]})";
  }
  try {
    (void)load_campaign_manifest(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "manifest: " + bad +
                  ": $.manifest_version: missing required member");
  }
  // Member checks shared with the spec codecs still name the manifest.
  const std::string spec =
      "\"" + scenario_library_dir() + "/ci-smoke.json\"";
  const std::pair<std::string, std::string> member_cases[] = {
      {R"("campaign_seed":5)", "$.campaign_seed: unknown member"},
      {R"("workers":-1)", "$.workers: must be an integer in [0, 2^53)"}};
  for (const auto& [member, why] : member_cases) {
    {
      std::ofstream out(bad);
      out << R"({"manifest_version":1,"specs":[)" << spec << "]," << member
          << "}";
    }
    try {
      (void)load_campaign_manifest(bad);
      FAIL() << "expected ParseError for " << member;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), "manifest: " + bad + ": " + why);
    }
  }
  fs::remove_all(dir);
}

TEST(CampaignManifest, DuplicateScenarioNamesAreRejected) {
  // Names key the rows and the artifact files of a campaign, so a repeat
  // is one line naming both positions.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hpcem_spec_io_manifest_dup_test";
  fs::create_directories(dir);
  const std::string lib = scenario_library_dir();
  const std::string bad = (dir / "dup.json").string();
  {
    std::ofstream out(bad);
    out << R"({"manifest_version":1,"specs":[")" << lib
        << R"(/figure1.json",")" << lib << R"(/ci-smoke.json",")" << lib
        << R"(/figure1.json"]})";
  }
  try {
    (void)load_campaign_manifest(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "manifest: " + bad +
                  ": $.specs[2]: duplicate scenario name "
                  "'figure1-baseline' (also $.specs[0])");
  }
  fs::remove_all(dir);
}

TEST(CampaignManifest, EveryCommittedManifestFixesItsWorkers) {
  // hpcem_sim --campaign prints the worker count in its header line, so a
  // manifest without `workers` (0: the host's hardware default) makes the
  // committed campaign's stdout depend on the machine it runs on.
  std::vector<std::string> manifests;
  for (const auto& entry : std::filesystem::directory_iterator(
           scenario_library_dir() + "/campaigns")) {
    if (entry.path().extension() == ".json") {
      manifests.push_back(entry.path().string());
    }
  }
  std::sort(manifests.begin(), manifests.end());
  ASSERT_GE(manifests.size(), 4u);
  for (const std::string& path : manifests) {
    SCOPED_TRACE(path);
    EXPECT_GT(load_campaign_manifest(path).config.workers, 0u);
  }
}

// ---------------------------------------------------------------------------
// The library campaign.

TEST(ScenarioLibrary, ManifestListsEverySpec) {
  // campaigns/library.json runs every committed spec against a golden, so
  // a new spec file must be added to it (once) to be checked.
  const std::string dir = scenario_library_dir();
  const CampaignManifest m =
      load_campaign_manifest(dir + "/campaigns/library.json");
  std::vector<std::string> listed;
  for (const std::string& file : m.spec_files) {
    listed.push_back(
        std::filesystem::weakly_canonical(file).filename().string());
  }
  std::vector<std::string> committed;
  for (const std::string& file : list_scenario_files(dir)) {
    committed.push_back(std::filesystem::path(file).filename().string());
  }
  std::vector<std::string> sorted = listed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a spec is listed twice";
  EXPECT_EQ(sorted, committed);
  EXPECT_EQ(m.config.seeds_per_scenario, 1u);
}

}  // namespace
}  // namespace hpcem
