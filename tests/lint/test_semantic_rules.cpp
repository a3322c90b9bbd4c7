// The semantic rule family end to end through the engine: units-flow and
// determinism-flow (cross-TU taint).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/engine.hpp"

namespace hpcem::lint {
namespace {

struct Source {
  std::string path;
  std::string content;
};

LintReport run_rule(const std::string& rule,
                    const std::vector<Source>& sources) {
  LintEngine engine;
  for (const Source& s : sources) engine.add_source(s.path, s.content);
  LintConfig config;
  config.only_rules = {rule};
  return engine.run(config);
}

std::size_t count_rule(const LintReport& report, std::string_view rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// -------------------------------------------------------------- units-flow
TEST(UnitsFlowRule, FlagsPowerEnergyMixupAndCleanCodePasses) {
  const LintReport bad = run_rule(
      "units-flow",
      {{"src/core/x.cpp",
        "double account(double node_kw) {\n"
        "  double used_kwh = node_kw;\n"
        "  return used_kwh;\n"
        "}\n"}});
  EXPECT_EQ(count_rule(bad, "units-flow"), 1u);

  const LintReport good = run_rule(
      "units-flow",
      {{"src/core/x.cpp",
        "double account(double node_kw, double hours) {\n"
        "  double used_kwh = node_kw * hours;\n"
        "  return used_kwh;\n"
        "}\n"}});
  EXPECT_TRUE(good.clean());
}

TEST(UnitsFlowRule, ChecksCallArgumentsAgainstCalleeParamSuffixes) {
  const LintReport report = run_rule(
      "units-flow",
      {{"src/core/a.cpp",
        "double emissions(double used_kwh) { return used_kwh * 2.0; }\n"},
       {"src/core/b.cpp",
        "double caller(double node_kw) {\n"
        "  return emissions(node_kw);\n"
        "}\n"}});
  EXPECT_EQ(count_rule(report, "units-flow"), 1u);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics[0].path, "src/core/b.cpp");
}

TEST(UnitsFlowRule, InlineSuppressionSilencesTheFinding) {
  const LintReport report = run_rule(
      "units-flow",
      {{"src/core/x.cpp",
        "double f(double node_kw) {\n"
        "  // intentional: scaled later.  hpcem-lint: allow(units-flow)\n"
        "  double used_kwh = node_kw;\n"
        "  return used_kwh;\n"
        "}\n"}});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
}

// ------------------------------------------------------- determinism-flow
TEST(DeterminismFlowRule, FlagsTransitiveWallClockIntoArtifact) {
  const LintReport report = run_rule(
      "determinism-flow",
      {{"src/core/clocky.cpp",
        "double stamp() {\n"
        "  return std::chrono::system_clock::now()"
        ".time_since_epoch().count();\n"
        "}\n"},
       {"src/core/mid.cpp", "double shim() { return stamp(); }\n"},
       {"src/core/out.cpp",
        "RunArtifact emit() {\n"
        "  RunArtifact a;\n"
        "  a.v = shim();\n"
        "  return a;\n"
        "}\n"}});
  ASSERT_EQ(count_rule(report, "determinism-flow"), 1u);
  const Diagnostic& d = report.diagnostics[0];
  EXPECT_EQ(d.path, "src/core/out.cpp");
  // The witness chain names every hop.
  EXPECT_NE(d.message.find("emit -> shim -> stamp"), std::string::npos);
  EXPECT_NE(d.message.find("wall-clock"), std::string::npos);
}

TEST(DeterminismFlowRule, FlagsUnseededRandomSources) {
  const LintReport report = run_rule(
      "determinism-flow",
      {{"src/core/r.cpp",
        "double noise() { return std::rand() * 1.0; }\n"
        "RunArtifact emit() {\n"
        "  RunArtifact a;\n"
        "  a.v = noise();\n"
        "  return a;\n"
        "}\n"}});
  ASSERT_EQ(count_rule(report, "determinism-flow"), 1u);
  EXPECT_NE(report.diagnostics[0].message.find("unseeded-RNG"),
            std::string::npos);
}

TEST(DeterminismFlowRule, SanctionedSourceBreaksTheTaint) {
  const LintReport report = run_rule(
      "determinism-flow",
      {{"src/core/clocky.cpp",
        "double stamp() {\n"
        "  // hpcem-lint: sanctioned-source(determinism-flow) — obs only.\n"
        "  return std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "}\n"},
       {"src/core/out.cpp",
        "RunArtifact emit() {\n"
        "  RunArtifact a;\n"
        "  a.v = stamp();\n"
        "  return a;\n"
        "}\n"}});
  EXPECT_TRUE(report.clean());
}

TEST(DeterminismFlowRule, CleanChainStaysClean) {
  const LintReport report = run_rule(
      "determinism-flow",
      {{"src/core/out.cpp",
        "double pure(double x) { return x * 2.0; }\n"
        "RunArtifact emit() {\n"
        "  RunArtifact a;\n"
        "  a.v = pure(21.0);\n"
        "  return a;\n"
        "}\n"}});
  EXPECT_TRUE(report.clean());
}

// ------------------------------------------------------- engine plumbing
TEST(SemanticRules, RegisteredInDefaultCatalogue) {
  LintEngine engine;
  EXPECT_TRUE(engine.has_rule("units-flow"));
  EXPECT_TRUE(engine.has_rule("determinism-flow"));
}

TEST(SemanticRules, RuleSelectionRunsOnlyTheNamedRules) {
  LintEngine engine;
  engine.add_source("src/core/x.cpp",
                    "double f(double node_kw) {\n"
                    "  auto t = std::chrono::system_clock::now();\n"
                    "  double used_kwh = node_kw;\n"
                    "  return used_kwh;\n"
                    "}\n");
  LintConfig config;
  config.only_rules = {"units-flow"};
  const LintReport report = engine.run(config);
  EXPECT_EQ(count_rule(report, "units-flow"), 1u);
  EXPECT_EQ(count_rule(report, "no-wall-clock"), 0u);
}

TEST(SemanticRules, ReportIsIdenticalForAnyWorkerCount) {
  const auto run_with = [](std::size_t workers) {
    LintEngine engine;
    engine.set_workers(workers);
    for (int i = 0; i < 6; ++i) {
      const std::string tag = std::to_string(i);
      engine.add_source("src/core/f" + tag + ".cpp",
                        "double f" + tag +
                            "(double node_kw) {\n"
                            "  double used_kwh = node_kw;\n"
                            "  return used_kwh;\n"
                            "}\n");
    }
    return engine.run(LintConfig{});
  };
  const LintReport one = run_with(1);
  const LintReport eight = run_with(8);
  ASSERT_EQ(one.diagnostics.size(), eight.diagnostics.size());
  for (std::size_t i = 0; i < one.diagnostics.size(); ++i) {
    EXPECT_EQ(one.diagnostics[i].path, eight.diagnostics[i].path);
    EXPECT_EQ(one.diagnostics[i].line, eight.diagnostics[i].line);
    EXPECT_EQ(one.diagnostics[i].rule, eight.diagnostics[i].rule);
    EXPECT_EQ(one.diagnostics[i].message, eight.diagnostics[i].message);
  }
  EXPECT_EQ(eight.workers, 8u);
}

TEST(SemanticRules, GithubFormatEscapesAndAnchors) {
  LintEngine engine;
  engine.add_source("src/core/x.cpp",
                    "double f(double node_kw) {\n"
                    "  double used_kwh = node_kw;\n"
                    "  return used_kwh;\n"
                    "}\n");
  const LintReport report = engine.run(LintConfig{});
  const std::string github = format_github(report);
  EXPECT_NE(github.find("::error file=src/core/x.cpp,line=2"),
            std::string::npos);
  EXPECT_NE(github.find("title=hpcem_lint units-flow::"),
            std::string::npos);
}

}  // namespace
}  // namespace hpcem::lint
