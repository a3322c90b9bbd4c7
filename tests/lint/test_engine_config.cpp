// Engine behaviour that is rule-independent: .hpcemlint parsing, glob
// matching, suppression comment mechanics, rule selection, filtering,
// ordering, and the text/JSON/GitHub report formats.
#include <gtest/gtest.h>

#include "lint/engine.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hpcem::lint {
namespace {

constexpr const char* kBadSim =
    "auto t = std::chrono::system_clock::now();\n";

// ------------------------------------------------------------------- config
TEST(LintConfig, ParsesDirectivesAndComments) {
  const LintConfig config = parse_config(
      "# header comment\n"
      "\n"
      "disable no-naked-new\n"
      "allow no-wall-clock src/util/wallclock.cpp  # trailing comment\n"
      "exclude bench/*\n");
  EXPECT_TRUE(config.rule_disabled("no-naked-new"));
  EXPECT_FALSE(config.rule_disabled("no-wall-clock"));
  EXPECT_TRUE(config.allowed("no-wall-clock", "src/util/wallclock.cpp"));
  EXPECT_FALSE(config.allowed("no-wall-clock", "src/sim/engine.cpp"));
  EXPECT_FALSE(config.allowed("no-naked-new", "src/util/wallclock.cpp"));
  EXPECT_TRUE(config.excluded("bench/bench_fig1_baseline.cpp"));
  EXPECT_FALSE(config.excluded("src/core/energy.cpp"));
}

TEST(LintConfig, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_config("disable\n"), ParseError);
  EXPECT_THROW((void)parse_config("allow just-a-rule\n"), ParseError);
  EXPECT_THROW((void)parse_config("frobnicate x\n"), ParseError);
  EXPECT_THROW((void)parse_config("disable a b\n"), ParseError);
}

TEST(LintGlob, Wildcards) {
  EXPECT_TRUE(glob_match("src/*", "src/core/energy.cpp"));  // * crosses '/'
  EXPECT_TRUE(glob_match("*.hpp", "src/util/units.hpp"));
  EXPECT_TRUE(glob_match("src/*/test_?.cpp", "src/lint/test_a.cpp"));
  EXPECT_TRUE(glob_match("exact.cpp", "exact.cpp"));
  EXPECT_FALSE(glob_match("src/*.cpp", "tools/hpcem_lint.cpp"));
  EXPECT_FALSE(glob_match("exact.cpp", "exact.cpp.bak"));
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
}

// ------------------------------------------------------------------- engine
TEST(LintEngine, DisabledRuleProducesNothing) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  LintConfig config;
  config.disabled_rules.push_back("no-wall-clock");
  const LintReport report = engine.run(config);
  EXPECT_TRUE(report.clean());
  // Disabling skips the rule entirely — nothing is even counted as
  // suppressed.
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintEngine, ExcludedFileIsNotScanned) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  LintConfig config;
  config.excludes.push_back("src/sim/*");
  const LintReport report = engine.run(config);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_scanned, 0u);
}

TEST(LintEngine, AllowGlobSuppressesButCounts) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  LintConfig config;
  config.allows.push_back({"no-wall-clock", "src/sim/*"});
  const LintReport report = engine.run(config);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_EQ(report.files_scanned, 1u);
}

TEST(LintEngine, RuleSelectionRunsOnlyTheNamedRules) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp",
                    "int* p = new int;\n" + std::string(kBadSim));
  LintConfig config;
  config.only_rules = {"no-naked-new"};
  const LintReport report = engine.run(config);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "no-naked-new");
  // An unselected rule is not run, so nothing counts as suppressed either.
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintEngine, DiagnosticsSortedByPathThenLine) {
  LintEngine engine;
  engine.add_source("src/b.cpp", "int* p = new int;\n" + std::string(kBadSim));
  engine.add_source("src/a.cpp", kBadSim);
  const LintReport report = engine.run(LintConfig{});
  ASSERT_EQ(report.diagnostics.size(), 3u);
  EXPECT_EQ(report.diagnostics[0].path, "src/a.cpp");
  EXPECT_EQ(report.diagnostics[1].path, "src/b.cpp");
  EXPECT_EQ(report.diagnostics[1].line, 1u);
  EXPECT_EQ(report.diagnostics[2].line, 2u);
}

// ------------------------------------------------------------- suppressions
TEST(LintSuppression, SameLineAndNextLineScopes) {
  LintEngine engine;
  engine.add_source(
      "src/sim/x.cpp",
      // Annotation above its own line: suppresses line 2 only.
      "// hpcem-lint: allow(no-wall-clock)\n"
      "auto a = std::chrono::system_clock::now();\n"
      "auto b = std::chrono::system_clock::now();\n");
  const LintReport report = engine.run(LintConfig{});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 3u);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintSuppression, AllowAllAndMultipleRules) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp",
                    "int* p = new int;  // hpcem-lint: allow(all)\n"
                    "// hpcem-lint: allow(no-naked-new, no-wall-clock)\n"
                    "int* q = new int;\n");
  const LintReport report = engine.run(LintConfig{});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 2u);
}

TEST(LintSuppression, UnrelatedRuleStillFires) {
  LintEngine engine;
  engine.add_source(
      "src/sim/x.cpp",
      "int* p = new int;  // hpcem-lint: allow(no-wall-clock)\n");
  const LintReport report = engine.run(LintConfig{});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "no-naked-new");
}

TEST(LintSuppression, PlainCommentsAreNotSuppressions) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp",
                    "// this line talks about hpcem-lint but allows nothing\n"
                    "int* p = new int;\n");
  const LintReport report = engine.run(LintConfig{});
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

// The repo's own obs-layer carve-out: `allow no-wall-clock
// src/obs/clock.cpp` covers exactly that file.  A steady_clock::now() in
// the clock shim is suppressed (but counted); the identical read anywhere
// else — including elsewhere under src/obs/ — still fires.
TEST(LintSuppression, ObsClockCarveOutIsNarrow) {
  const LintConfig config =
      parse_config("allow no-wall-clock src/obs/clock.cpp\n");
  constexpr const char* kClockRead =
      "auto t = std::chrono::steady_clock::now();\n";

  LintEngine engine;
  engine.add_source("src/obs/clock.cpp", kClockRead);
  engine.add_source("src/obs/registry.cpp", kClockRead);
  engine.add_source("src/sim/engine.cpp", kClockRead);
  const LintReport report = engine.run(config);

  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].path, "src/obs/registry.cpp");
  EXPECT_EQ(report.diagnostics[0].rule, "no-wall-clock");
  EXPECT_EQ(report.diagnostics[1].path, "src/sim/engine.cpp");
  EXPECT_EQ(report.diagnostics[1].rule, "no-wall-clock");
}

// ------------------------------------------------------------------ reports
TEST(LintReport, TextFormat) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  const std::string text = format_text(engine.run(LintConfig{}));
  EXPECT_NE(text.find("src/sim/x.cpp:1:"), std::string::npos);
  EXPECT_NE(text.find("[no-wall-clock]"), std::string::npos);
  EXPECT_NE(text.find("FAILED: 1 finding(s)"), std::string::npos);

  LintEngine clean_engine;
  clean_engine.add_source("src/sim/y.cpp", "int x = 1;\n");
  const std::string clean = format_text(clean_engine.run(LintConfig{}));
  EXPECT_NE(clean.find("clean: 0 finding(s)"), std::string::npos);
}

TEST(LintReport, JsonFormatRoundTrips) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  const LintReport report = engine.run(LintConfig{});
  const JsonValue doc = JsonValue::parse(format_json(report));
  EXPECT_EQ(doc.at("tool").as_string(), "hpcem_lint");
  EXPECT_EQ(doc.at("files_scanned").as_number(), 1.0);
  // The report is a pure function of the sources: no timing or worker
  // fields.
  EXPECT_EQ(doc.as_object().size(), 5u);
  EXPECT_EQ(doc.get("analysis_wall_ms"), nullptr);
  const auto& diags = doc.at("diagnostics").as_array();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].at("rule").as_string(), "no-wall-clock");
  EXPECT_EQ(diags[0].at("path").as_string(), "src/sim/x.cpp");
  EXPECT_EQ(diags[0].at("line").as_number(), 1.0);
}

TEST(LintReport, GithubFormatEscapesAndAnchors) {
  LintEngine engine;
  engine.add_source("src/sim/x.cpp", kBadSim);
  const std::string github = format_github(engine.run(LintConfig{}));
  EXPECT_EQ(github.rfind("::error file=src/sim/x.cpp,line=1,col=", 0), 0u);
  EXPECT_NE(github.find(",title=hpcem_lint no-wall-clock::"),
            std::string::npos);

  // %, CR and LF are escaped so one message cannot start a second command;
  // a file-level finding (line 0) carries no line or column.
  LintReport report;
  report.diagnostics.push_back(
      {"no-include-cycle", "src/a.hpp", 0, 0, "100% cyclic\r\n::error x"});
  EXPECT_EQ(format_github(report),
            "::error file=src/a.hpp,title=hpcem_lint no-include-cycle::"
            "100%25 cyclic%0D%0A::error x\n");
  EXPECT_EQ(format_github(LintReport{}), "");
}

TEST(LintEngine, HasRuleKnowsTheCatalogue) {
  LintEngine engine;
  EXPECT_TRUE(engine.has_rule("no-wall-clock"));
  EXPECT_TRUE(engine.has_rule("no-unseeded-random"));
  EXPECT_TRUE(engine.has_rule("no-include-cycle"));
  EXPECT_FALSE(engine.has_rule("made-up-rule"));
  EXPECT_EQ(engine.rules().size(), 11u);
  // The catalogue documents itself: every rule has a name and description.
  for (const auto& rule : engine.rules()) {
    EXPECT_FALSE(rule->name().empty());
    EXPECT_FALSE(rule->description().empty());
  }
}

TEST(SemanticRules, RegisteredInDefaultCatalogue) {
  LintEngine engine;
  EXPECT_TRUE(engine.has_rule("units-vocabulary"));
  // The analyzers are gone: units live on the types, and determinism is
  // held by the token rules plus byte-identity tests of the outputs.
  EXPECT_FALSE(engine.has_rule("units-flow"));
  EXPECT_FALSE(engine.has_rule("determinism-flow"));
}

}  // namespace
}  // namespace hpcem::lint
