// Per-rule fixtures: every rule gets a positive case (fires), a negative
// case (stays quiet) and a suppressed case (inline annotation silences it).
#include <gtest/gtest.h>

#include "lint/engine.hpp"

namespace hpcem::lint {
namespace {

/// Lint a single in-memory file with the default rule set and no config.
LintReport lint_one(const std::string& path, const std::string& source) {
  LintEngine engine;
  engine.add_source(path, source);
  return engine.run(LintConfig{});
}

std::size_t count_rule(const LintReport& report, std::string_view rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// ---------------------------------------------------------------- no-wall-clock
TEST(NoWallClock, FlagsClockNowReads) {
  const auto report = lint_one("src/sim/x.cpp",
                               "void f() {\n"
                               "  auto a = std::chrono::system_clock::now();\n"
                               "  auto b = std::chrono::steady_clock::now();\n"
                               "  auto c = high_resolution_clock::now();\n"
                               "}\n");
  EXPECT_EQ(count_rule(report, "no-wall-clock"), 3u);
  EXPECT_EQ(report.diagnostics[0].line, 2u);
}

TEST(NoWallClock, FlagsTimeMacrosAndPosixCalls) {
  const auto report = lint_one("src/sim/x.cpp",
                               "const char* built = __DATE__ \" \" __TIME__;\n"
                               "void g(timespec* ts) { clock_gettime(0, ts); }\n");
  EXPECT_EQ(count_rule(report, "no-wall-clock"), 3u);
}

TEST(NoWallClock, IgnoresTypeMentionsCommentsAndStrings) {
  const auto report =
      lint_one("src/sim/x.cpp",
               "// system_clock::now() discussed here only\n"
               "const char* s = \"steady_clock::now()\";\n"
               "using clock_t2 = std::chrono::steady_clock;\n");
  EXPECT_EQ(count_rule(report, "no-wall-clock"), 0u);
}

TEST(NoWallClock, SuppressedInline) {
  const auto report = lint_one(
      "src/sim/x.cpp",
      "auto t = std::chrono::system_clock::now();  // hpcem-lint: "
      "allow(no-wall-clock)\n");
  EXPECT_EQ(count_rule(report, "no-wall-clock"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

// ----------------------------------------------------------- no-unseeded-random
TEST(NoUnseededRandom, FlagsCRandAndRandomDevice) {
  const auto report = lint_one("src/workload/x.cpp",
                               "int f() { return std::rand(); }\n"
                               "void g() { srand(7); }\n"
                               "std::random_device rd;\n");
  EXPECT_EQ(count_rule(report, "no-unseeded-random"), 3u);
}

TEST(NoUnseededRandom, FlagsDefaultConstructedEngines) {
  const auto report = lint_one("src/workload/x.cpp",
                               "std::mt19937 a;\n"
                               "std::mt19937_64 b{};\n"
                               "std::default_random_engine c;\n");
  EXPECT_EQ(count_rule(report, "no-unseeded-random"), 3u);
}

TEST(NoUnseededRandom, AllowsSeededEnginesAndMembers) {
  const auto report = lint_one("src/workload/x.cpp",
                               "std::mt19937 gen(seed);\n"
                               "std::mt19937 gen2{split()};\n"
                               "obj.rand();\n"          // member, not libc
                               "my::rand();\n"          // other namespace
                               "using std::mt19937;\n"  // type mention
                               "double r = rng.uniform();\n");
  EXPECT_EQ(count_rule(report, "no-unseeded-random"), 0u);
}

TEST(NoUnseededRandom, SuppressedOnAnnotatedLine) {
  const auto report =
      lint_one("src/workload/x.cpp",
               "// hpcem-lint: allow(no-unseeded-random)\n"
               "std::random_device rd;\n");
  EXPECT_EQ(count_rule(report, "no-unseeded-random"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

// --------------------------------------------------------------- ordered-output
TEST(OrderedOutput, FlagsUnorderedIterationInWritingFile) {
  const auto report = lint_one(
      "src/core/x.cpp",
      "#include <fstream>\n"
      "std::unordered_map<int, double> totals;\n"
      "void dump(std::ofstream& out) {\n"
      "  for (const auto& [k, v] : totals) out << k << ',' << v << '\\n';\n"
      "}\n");
  EXPECT_EQ(count_rule(report, "ordered-output"), 1u);
}

TEST(OrderedOutput, QuietWithoutOutputOrWithOrderedContainers) {
  // Same iteration, no artifact writing: allowed (accumulation order often
  // doesn't matter, and Neumaier-style sums are checked elsewhere).
  const auto no_output = lint_one(
      "src/core/x.cpp",
      "std::unordered_map<int, double> totals;\n"
      "double sum() { double s = 0; for (auto& [k, v] : totals) s += v; "
      "return s; }\n");
  EXPECT_EQ(count_rule(no_output, "ordered-output"), 0u);

  const auto ordered = lint_one("src/core/y.cpp",
                                "#include <fstream>\n"
                                "std::map<int, double> totals;\n"
                                "void dump(std::ofstream& out) {\n"
                                "  for (const auto& [k, v] : totals) out << "
                                "k;\n"
                                "}\n");
  EXPECT_EQ(count_rule(ordered, "ordered-output"), 0u);
}

TEST(OrderedOutput, SuppressedInline) {
  const auto report = lint_one(
      "src/core/x.cpp",
      "#include \"util/csv.hpp\"\n"
      "std::unordered_set<int> seen;\n"
      "void dump() {\n"
      "  // hpcem-lint: allow(ordered-output)\n"
      "  for (int k : seen) write_csv(k);\n"
      "}\n");
  EXPECT_EQ(count_rule(report, "ordered-output"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

// ------------------------------------------------------------- units-vocabulary
TEST(UnitsVocabulary, FlagsRawDoubleUnitParamsInPublicHeaders) {
  const auto report = lint_one("src/power/x.hpp",
                               "#pragma once\n"
                               "void set_cap(double cap_kw);\n"
                               "void set_ci(double grid_gco2_per_kwh);\n"
                               "void set_price(double unit_gbp);\n"
                               "void set_clock(float turbo_ghz);\n");
  EXPECT_EQ(count_rule(report, "units-vocabulary"), 4u);
  EXPECT_NE(report.diagnostics[0].message.find("hpcem::Power"),
            std::string::npos);
}

TEST(UnitsVocabulary, QuietForVocabularyTypesMembersAndCppFiles) {
  // Vocabulary types (PowerKw included) and unsuffixed doubles are fine
  // anywhere.
  const auto header = lint_one("src/power/x.hpp",
                               "#pragma once\n"
                               "void set_cap(Power cap);\n"
                               "void scale(double factor);\n"
                               "struct S { PowerKw mean_kw; "
                               "double share = 0.0; };\n");
  EXPECT_EQ(count_rule(header, "units-vocabulary"), 0u);

  // Members, locals, returns, trailing-underscore members and .cpp files
  // are all in scope now.
  const auto cpp = lint_one("src/power/x.cpp",
                            "struct S { double busy_node_power_w = 0.0; };\n"
                            "class C { double cached_metered_w_ = 0.0; };\n"
                            "double total_kwh() { return 0.0; }\n"
                            "static void set_cap(double cap_kw) {\n"
                            "  double used_kwh = cap_kw;\n"
                            "}\n");
  EXPECT_EQ(count_rule(cpp, "units-vocabulary"), 5u);
  ASSERT_EQ(cpp.diagnostics.size(), 5u);
  EXPECT_NE(cpp.diagnostics[1].message.find("'cached_metered_w_'"),
            std::string::npos);
  EXPECT_NE(cpp.diagnostics[2].message.find("hpcem::EnergyKwh"),
            std::string::npos);
  EXPECT_NE(cpp.diagnostics[3].message.find("hpcem::PowerKw"),
            std::string::npos);
}

TEST(UnitsVocabulary, SuppressedInline) {
  const auto report = lint_one(
      "src/power/x.hpp",
      "#pragma once\n"
      "// CSV boundary: the raw column value, converted on ingest.\n"
      "// hpcem-lint: allow(units-vocabulary)\n"
      "void ingest(double power_kw);\n");
  EXPECT_EQ(count_rule(report, "units-vocabulary"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintUnits, SuffixVocabulary) {
  // The suffix -> vocabulary-type table the rule suggests from: the
  // longest matching suffix wins, and a compound suffix may be the whole
  // name.
  const auto suggestion = [](const std::string& name) {
    const auto report =
        lint_one("src/core/x.cpp", "double " + name + " = 0.0;\n");
    for (const Diagnostic& d : report.diagnostics) {
      if (d.rule != "units-vocabulary") continue;
      const std::size_t at = d.message.find("hpcem::") + 7;
      return d.message.substr(at, d.message.find(' ', at) - at);
    }
    return std::string();
  };
  EXPECT_EQ(suggestion("node_power_kw"), "PowerKw");
  EXPECT_EQ(suggestion("total_kwh"), "EnergyKwh");
  EXPECT_EQ(suggestion("draw_w"), "Power");
  EXPECT_EQ(suggestion("clock_ghz"), "Frequency");
  EXPECT_EQ(suggestion("cost_gbp"), "Cost");
  EXPECT_EQ(suggestion("tariff_gbp_per_kwh"), "Price");
  EXPECT_EQ(suggestion("emitted_gco2"), "CarbonMass");
  EXPECT_EQ(suggestion("intensity_gco2_per_kwh"), "CarbonIntensity");
  EXPECT_EQ(suggestion("mean_g_per_kwh"), "CarbonIntensity");
  EXPECT_EQ(suggestion("g_per_kwh"), "CarbonIntensity");
  EXPECT_EQ(suggestion("gbp_per_kwh"), "Price");
  EXPECT_EQ(suggestion("plain_name"), "");
  EXPECT_EQ(suggestion("kwh"), "");              // a bare unit names nothing
  EXPECT_EQ(suggestion("gco2_per_output"), "");  // a ratio, not a mass
}

TEST(UnitsVocabulary, InlineSuppressionSilencesTheFinding) {
  const auto report =
      lint_one("src/core/x.cpp",
               "double f(double node) {\n"
               "  // intentional: scaled later.  hpcem-lint: "
               "allow(units-vocabulary)\n"
               "  double used_kwh = node;\n"
               "  return used_kwh;\n"
               "}\n");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
}

// ---------------------------------------------------------------- no-naked-new
TEST(NoNakedNew, FlagsNewAndDelete) {
  const auto report = lint_one("src/util/x.cpp",
                               "int* p = new int(3);\n"
                               "void f(int* q) { delete q; }\n");
  EXPECT_EQ(count_rule(report, "no-naked-new"), 2u);
}

TEST(NoNakedNew, AllowsDeletedFunctionsAndOperatorOverloads) {
  const auto report =
      lint_one("src/util/x.cpp",
               "struct S {\n"
               "  S(const S&) = delete;\n"
               "  void* operator new(std::size_t);\n"
               "  void operator delete(void*);\n"
               "};\n"
               "auto p = std::make_unique<int>(3);\n");
  EXPECT_EQ(count_rule(report, "no-naked-new"), 0u);
}

TEST(NoNakedNew, SuppressedInline) {
  const auto report = lint_one(
      "src/util/x.cpp",
      "int* p = new int(3);  // hpcem-lint: allow(no-naked-new)\n");
  EXPECT_EQ(count_rule(report, "no-naked-new"), 0u);
}

// ----------------------------------------------------------- no-swallowed-catch
TEST(NoSwallowedCatch, FlagsSilentCatchAll) {
  const auto report = lint_one("src/sim/x.cpp",
                               "void f() { try { g(); } catch (...) {} }\n");
  EXPECT_EQ(count_rule(report, "no-swallowed-catch"), 1u);
}

TEST(NoSwallowedCatch, AllowsRethrowCaptureAndTypedCatch) {
  const auto report = lint_one(
      "src/sim/x.cpp",
      "void a() { try { g(); } catch (...) { throw; } }\n"
      "void b() { try { g(); } catch (...) { e = std::current_exception(); } "
      "}\n"
      "void c() { try { g(); } catch (const Error& err) {} }\n");
  EXPECT_EQ(count_rule(report, "no-swallowed-catch"), 0u);
}

TEST(NoSwallowedCatch, SuppressedInline) {
  const auto report = lint_one(
      "src/sim/x.cpp",
      "// best-effort cleanup path\n"
      "// hpcem-lint: allow(no-swallowed-catch)\n"
      "void f() { try { g(); } catch (...) {} }\n");
  EXPECT_EQ(count_rule(report, "no-swallowed-catch"), 0u);
}

// ----------------------------------------------------------- nodiscard-accessor
TEST(NodiscardAccessor, FlagsPlainInlineAccessor) {
  const auto report = lint_one("src/core/x.hpp",
                               "#pragma once\n"
                               "class C {\n"
                               " public:\n"
                               "  double total_kwh() const { return t_; }\n"
                               " private:\n"
                               "  double t_ = 0.0;\n"
                               "};\n");
  EXPECT_EQ(count_rule(report, "nodiscard-accessor"), 1u);
}

TEST(NodiscardAccessor, QuietWhenAnnotatedVoidOrOperator) {
  const auto report = lint_one(
      "src/core/x.hpp",
      "#pragma once\n"
      "class C {\n"
      " public:\n"
      "  [[nodiscard]] double total() const { return t_; }\n"
      "  [[nodiscard]] double squared() const noexcept { return t_ * t_; }\n"
      "  void touch() const { return; }\n"
      "  bool operator!() const { return t_ == 0.0; }\n"
      "  void mutate() { t_ += 1.0; }\n"
      " private:\n"
      "  mutable double t_ = 0.0;\n"
      "};\n");
  EXPECT_EQ(count_rule(report, "nodiscard-accessor"), 0u);
}

TEST(NodiscardAccessor, SuppressedInline) {
  const auto report = lint_one(
      "src/core/x.hpp",
      "#pragma once\n"
      "class C {\n"
      "  // hpcem-lint: allow(nodiscard-accessor)\n"
      "  double legacy() const { return t_; }\n"
      "  double t_ = 0.0;\n"
      "};\n");
  EXPECT_EQ(count_rule(report, "nodiscard-accessor"), 0u);
}

// ---------------------------------------------------------- header-pragma-once
TEST(HeaderPragmaOnce, FlagsMissingAndLateGuard) {
  const auto missing = lint_one("src/util/x.hpp", "int x;\n");
  EXPECT_EQ(count_rule(missing, "header-pragma-once"), 1u);
  const auto late = lint_one("src/util/y.hpp",
                             "#include <string>\n#pragma once\nint y;\n");
  EXPECT_EQ(count_rule(late, "header-pragma-once"), 1u);
  const auto empty = lint_one("src/util/z.hpp", "// only a comment\n");
  EXPECT_EQ(count_rule(empty, "header-pragma-once"), 1u);
}

TEST(HeaderPragmaOnce, QuietWithLeadingCommentsThenPragma) {
  const auto report = lint_one("src/util/x.hpp",
                               "// File comment block.\n"
                               "/* more docs */\n"
                               "#pragma once\n"
                               "int x;\n");
  EXPECT_EQ(count_rule(report, "header-pragma-once"), 0u);
  // Sources are out of scope.
  const auto cpp = lint_one("src/util/x.cpp", "int x;\n");
  EXPECT_EQ(count_rule(cpp, "header-pragma-once"), 0u);
}

// ----------------------------------------------------------- no-include-cycle
TEST(NoIncludeCycle, FlagsTwoFileCycleOnce) {
  LintEngine engine;
  engine.add_source("src/a/a.hpp",
                    "#pragma once\n#include \"b/b.hpp\"\nint a();\n");
  engine.add_source("src/b/b.hpp",
                    "#pragma once\n#include \"a/a.hpp\"\nint b();\n");
  const auto report = engine.run(LintConfig{});
  ASSERT_EQ(count_rule(report, "no-include-cycle"), 1u);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == "no-include-cycle") {
      EXPECT_NE(d.message.find("src/a/a.hpp -> src/b/b.hpp"),
                std::string::npos);
    }
  }
}

TEST(NoIncludeCycle, QuietOnDagAndUnknownIncludes) {
  LintEngine engine;
  engine.add_source("src/a/a.hpp",
                    "#pragma once\n#include \"b/b.hpp\"\n#include "
                    "<vector>\n#include \"not/in/repo.hpp\"\n");
  engine.add_source("src/b/b.hpp", "#pragma once\nint b();\n");
  const auto report = engine.run(LintConfig{});
  EXPECT_EQ(count_rule(report, "no-include-cycle"), 0u);
}

TEST(NoIncludeCycle, ConfigAllowSilencesCycle) {
  LintEngine engine;
  engine.add_source("src/a/a.hpp", "#pragma once\n#include \"a/a.hpp\"\n");
  LintConfig config;
  config.allows.push_back({"no-include-cycle", "src/a/*"});
  const auto report = engine.run(config);
  EXPECT_EQ(count_rule(report, "no-include-cycle"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

// ------------------------------------------------------------ scenario-in-data
TEST(ScenarioInData, FlagsLiteralAssemblyInBenchAndTools) {
  const auto bench = lint_one("bench/bench_x.cpp",
                              "int main() {\n"
                              "  ScenarioSpec spec;\n"
                              "  spec.name = \"ad-hoc\";\n"
                              "  spec.seed = 7;\n"
                              "}\n");
  EXPECT_EQ(count_rule(bench, "scenario-in-data"), 1u);
  EXPECT_EQ(bench.diagnostics[0].line, 2u);

  const auto tool = lint_one(
      "tools/hpcem_x.cpp",
      "ScenarioSpec spec{\"name\", Machine::kMicro};\n");
  EXPECT_EQ(count_rule(tool, "scenario-in-data"), 1u);

  // A call that merely names a figure is not a library load.
  const auto factory = lint_one(
      "bench/bench_v.cpp",
      "ScenarioSpec e = ScenarioSpec::figure2();\n"
      "const ScenarioSpec f = make_archer2_baseline();\n");
  EXPECT_EQ(count_rule(factory, "scenario-in-data"), 2u);
}

TEST(ScenarioInData, AllowsSanctionedLoadersAndFactories) {
  const auto report = lint_one(
      "bench/bench_y.cpp",
      "ScenarioSpec a = load_named_scenario(\"figure1\");\n"
      "const ScenarioSpec b = load_scenario_file(path);\n"
      "ScenarioSpec c = parse_scenario(text);\n"
      "ScenarioSpec d = scenario_from_json(doc);\n"
      "ScenarioSpec e = load_named_scenario(\"archer2-baseline\");\n");
  EXPECT_EQ(count_rule(report, "scenario-in-data"), 0u);
}

TEST(ScenarioInData, IgnoresConsumingUsesAndOtherDirs) {
  // References/pointers, qualified members and template arguments consume a
  // spec; src/ and tests/ may assemble literals (the loader itself must).
  const auto bench = lint_one("bench/bench_z.cpp",
                              "void run(const ScenarioSpec& spec);\n"
                              "std::vector<ScenarioSpec> specs;\n"
                              "auto g = &ScenarioSpec::name;\n");
  EXPECT_EQ(count_rule(bench, "scenario-in-data"), 0u);

  const auto core = lint_one("src/core/spec_io.cpp",
                             "ScenarioSpec spec;\nspec.seed = 1;\n");
  EXPECT_EQ(count_rule(core, "scenario-in-data"), 0u);
  const auto test = lint_one("tests/core/test_spec_io.cpp",
                             "ScenarioSpec spec;\n");
  EXPECT_EQ(count_rule(test, "scenario-in-data"), 0u);
}

TEST(ScenarioInData, ConfigAllowAndInlineSuppression) {
  const auto inline_ok = lint_one(
      "bench/bench_w.cpp",
      "ScenarioSpec spec;  // hpcem-lint: allow(scenario-in-data)\n");
  EXPECT_EQ(count_rule(inline_ok, "scenario-in-data"), 0u);
  EXPECT_EQ(inline_ok.suppressed, 1u);

  LintEngine engine;
  engine.add_source("tools/hpcem_w.cpp", "ScenarioSpec spec;\n");
  LintConfig config;
  config.allows.push_back({"scenario-in-data", "tools/hpcem_w.cpp"});
  const auto report = engine.run(config);
  EXPECT_EQ(count_rule(report, "scenario-in-data"), 0u);
  EXPECT_EQ(report.suppressed, 1u);
}

}  // namespace
}  // namespace hpcem::lint
