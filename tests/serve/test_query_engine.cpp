// QueryEngine: the five operations, request canonicalization, and the
// error envelope.
#include "serve/query.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>

#include "telemetry/timeseries.hpp"
#include "util/json.hpp"

namespace hpcem::serve {
namespace {

constexpr double kDay = 86400.0;

// A constant-power scenario: energy and emissions have closed forms.
RunArtifact flat_artifact(const std::string& scenario, double kw,
                          double days, double jobs) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  a.machine = "archer2";
  TimeSeries s("kW");
  const auto n = static_cast<std::size_t>(days * 24.0) + 1;  // hourly
  for (std::size_t i = 0; i < n; ++i) {
    s.append(SimTime(static_cast<double>(i) * 3600.0), kw);
  }
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = PowerKw{kw};
  a.headline.mean_utilisation = 0.9;
  a.headline.window_energy_kwh = EnergyKwh{s.integrate() / 3600.0};
  a.headline.completed_jobs = jobs;
  a.channels.push_back(aggregate_channel("cabinet_kw", s, true));
  return a;
}

// A scenario whose kW channel never recorded a sample: no series, and
// none needed.
RunArtifact quiet_artifact() {
  RunArtifact a = flat_artifact("quiet", 0.0, 1.0, 0.0);
  a.channels.front() = aggregate_channel("cabinet_kw", TimeSeries("kW"), true);
  return a;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.add(flat_artifact("base", 3000.0, 10.0, 20000.0));
    store_.add(flat_artifact("eco", 2400.0, 10.0, 18000.0));
    store_.add(quiet_artifact());
    stores_.attach(store_);
  }
  ArtifactStore store_;
  MultiStore stores_;  ///< the one-shard routing table over store_
};

JsonValue result_of(const QueryEngine& engine, const std::string& line) {
  return engine.evaluate(QueryRequest::from_json_text(line));
}

TEST_F(QueryEngineTest, ListInventoriesEveryScenario) {
  const QueryEngine engine(stores_);
  const JsonValue r = result_of(engine, R"({"op":"list"})");
  const auto& scenarios = r.at("scenarios").as_array();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].at("scenario").as_string(), "base");
  EXPECT_EQ(scenarios[1].at("scenario").as_string(), "eco");
  EXPECT_EQ(scenarios[2].at("scenario").as_string(), "quiet");
  EXPECT_TRUE(
      scenarios[0].at("channels").as_array()[0].at("has_series").as_bool());
  EXPECT_FALSE(
      scenarios[2].at("channels").as_array()[0].at("has_series").as_bool());
}

TEST_F(QueryEngineTest, WindowAggregateOnConstantPower) {
  const QueryEngine engine(stores_);
  // Two whole days of a flat 3000 kW channel.
  const JsonValue r = result_of(
      engine,
      R"({"op":"window_aggregate","scenario":"base","channel":"cabinet_kw",)"
      R"("start":86400,"end":259200})");
  EXPECT_DOUBLE_EQ(r.at("mean").as_number(), 3000.0);
  EXPECT_DOUBLE_EQ(r.at("min").as_number(), 3000.0);
  EXPECT_DOUBLE_EQ(r.at("max").as_number(), 3000.0);
  // Hourly samples from 86400 to 255600 inclusive (end is exclusive):
  // 48 samples spanning 47 h of 3000 kW.
  EXPECT_EQ(static_cast<int>(r.at("samples").as_number()), 48);
  EXPECT_NEAR(r.at("energy_kwh").as_number(), 3000.0 * 47.0, 1e-6);
}

TEST_F(QueryEngineTest, WindowAggregateAcceptsIsoTimestamps) {
  const QueryEngine engine(stores_);
  // Epoch 86400 == 1970-01-02 00:00; the ISO spelling answers identically.
  const JsonValue num = result_of(
      engine,
      R"({"op":"window_aggregate","scenario":"base","channel":"cabinet_kw",)"
      R"("start":86400,"end":259200})");
  const JsonValue iso = result_of(
      engine,
      R"({"op":"window_aggregate","scenario":"base","channel":"cabinet_kw",)"
      R"("start":"1970-01-02","end":"1970-01-04"})");
  EXPECT_EQ(num.dump(0), iso.dump(0));
}

TEST_F(QueryEngineTest, RegimesSplitsALinearCrossingExactly) {
  const QueryEngine engine(stores_);
  // Intensity ramps 0 -> 130 g/kWh over [0, 130000 s]: the §2 thresholds
  // at 30 and 100 are crossed at t = 30000 and t = 100000 exactly.
  const JsonValue r = result_of(
      engine,
      R"({"op":"regimes","scenario":"base","start":0,"end":130000,)"
      R"("intensity":{"points":[[0,0],[130000,130]]}})");
  EXPECT_NEAR(r.at("seconds").at("embodied_dominated").as_number(), 30000.0,
              1e-6);
  EXPECT_NEAR(r.at("seconds").at("balanced").as_number(), 70000.0, 1e-6);
  EXPECT_NEAR(r.at("seconds").at("operational_dominated").as_number(),
              30000.0, 1e-6);
  EXPECT_EQ(r.at("dominant").as_string(), "balanced");
  EXPECT_NEAR(r.at("mean_intensity_g_per_kwh").as_number(), 65.0, 1e-9);
}

TEST_F(QueryEngineTest, RegimesConstantIntensityIsOneRegime) {
  const QueryEngine engine(stores_);
  const JsonValue r = result_of(
      engine,
      R"({"op":"regimes","scenario":"base",)"
      R"("intensity":{"constant_g_per_kwh":250}})");
  EXPECT_DOUBLE_EQ(r.at("shares").at("operational_dominated").as_number(),
                   1.0);
  EXPECT_EQ(r.at("dominant").as_string(), "operational_dominated");
  EXPECT_EQ(r.at("strategy").as_string(), "energy-efficiency");
}

TEST_F(QueryEngineTest, CompareReportsJobsPerKwhBothWays) {
  const QueryEngine engine(stores_);
  const JsonValue r =
      result_of(engine, R"({"op":"compare","a":"base","b":"eco"})");
  // base: 20000 jobs / 720000 kWh; eco: 18000 / 576000 — eco wins.
  const double ja = 20000.0 / (3000.0 * 240.0);
  const double jb = 18000.0 / (2400.0 * 240.0);
  EXPECT_NEAR(r.at("a").at("jobs_per_kwh").as_number(), ja, 1e-12);
  EXPECT_NEAR(r.at("b").at("jobs_per_kwh").as_number(), jb, 1e-12);
  EXPECT_NEAR(r.at("jobs_per_kwh_ratio").as_number(), jb / ja, 1e-12);
  EXPECT_EQ(r.at("more_efficient").as_string(), "b");
}

TEST_F(QueryEngineTest, WhatIfConstantIntensityHasClosedForm) {
  const QueryEngine engine(stores_);
  const JsonValue r = result_of(
      engine,
      R"({"op":"whatif","scenario":"base","channel":"cabinet_kw",)"
      R"("intensity":{"constant_g_per_kwh":100},)"
      R"("scope3":{"total_tonnes":1461,"lifetime_years":4}})");
  // 3000 kW for 10 days = 720 MWh; at 100 g/kWh -> 72 t scope 2.
  const double energy_kwh = 3000.0 * 240.0;
  EXPECT_NEAR(r.at("energy_kwh").as_number(), energy_kwh, 1e-6);
  EXPECT_NEAR(r.at("scope2_tonnes").as_number(), 72.0, 1e-9);
  // 1461 t over 4 years = 1 t/day -> 10 t over the 10-day span.
  EXPECT_NEAR(r.at("scope3_tonnes").as_number(),
              (1461.0 / 4.0) * (10.0 * kDay) / (365.25 * kDay), 1e-9);
  EXPECT_NEAR(r.at("scope2_share").as_number(), 72.0 / 82.0, 1e-9);
  EXPECT_EQ(r.at("regime").as_string(), "balanced");
}

TEST_F(QueryEngineTest, WhatIfMatchesRegimeAndStrategyVocabulary) {
  const QueryEngine engine(stores_);
  const JsonValue low = result_of(
      engine,
      R"({"op":"whatif","scenario":"base","channel":"cabinet_kw",)"
      R"("intensity":{"constant_g_per_kwh":5}})");
  EXPECT_EQ(low.at("regime").as_string(), "embodied_dominated");
  EXPECT_EQ(low.at("strategy").as_string(), "performance");
}

TEST_F(QueryEngineTest, ZeroSampleChannelAnswersEmptyWindows) {
  const QueryEngine engine(stores_);
  // Whole window and sub-window alike: zero samples, no statistics.
  for (const std::string window : {"", R"(,"start":0,"end":86400)"}) {
    const JsonValue r = result_of(
        engine, R"({"op":"window_aggregate","scenario":"quiet",)"
                R"("channel":"cabinet_kw")" + window + "}");
    EXPECT_EQ(static_cast<int>(r.at("samples").as_number()), 0) << window;
    EXPECT_EQ(r.get("mean"), nullptr) << window;
  }
  // A what-if needs two samples to integrate.
  EXPECT_THROW(result_of(engine, R"({"op":"whatif","scenario":"quiet",)"
                                 R"("channel":"cabinet_kw",)"
                                 R"("intensity":{"constant_g_per_kwh":100}})"),
               InvalidArgument);
}

TEST_F(QueryEngineTest, DomainErrorsAreTypedAndNamed) {
  const QueryEngine engine(stores_);
  EXPECT_THROW(result_of(engine, R"({"op":"window_aggregate",)"
                                 R"("scenario":"nope","channel":"x"})"),
               InvalidArgument);
  EXPECT_THROW(result_of(engine, R"({"op":"window_aggregate",)"
                                 R"("scenario":"base","channel":"nope"})"),
               InvalidArgument);
  EXPECT_THROW(
      result_of(engine, R"({"op":"whatif","scenario":"base",)"
                        R"("channel":"cabinet_kw","intensity":{}})"),
      ParseError);
}

TEST(QueryRequest, CanonicalKeyCollapsesSpellings) {
  // Different member order, ISO vs epoch times, same question.
  const auto a = QueryRequest::from_json_text(
      R"({"op":"window_aggregate","scenario":"s","channel":"c",)"
      R"("start":86400,"end":172800})");
  const auto b = QueryRequest::from_json_text(
      R"({"end":"1970-01-03","channel":"c","start":"1970-01-02",)"
      R"("scenario":"s","op":"window_aggregate"})");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());

  // The id is part of the question: responses echo it.
  const auto c = QueryRequest::from_json_text(
      R"({"op":"window_aggregate","scenario":"s","channel":"c",)"
      R"("start":86400,"end":172800,"id":"q1"})");
  EXPECT_NE(a.canonical_key(), c.canonical_key());

  // Canonicalization is idempotent: parsing a canonical rendering yields
  // the same canonical rendering (the invariant the verbatim-line cache
  // level relies on).
  EXPECT_EQ(QueryRequest::from_json_text(a.canonical_key()).canonical_key(),
            a.canonical_key());
}

TEST(QueryRequest, RejectsUnknownMembersAndBadShapes) {
  EXPECT_THROW(QueryRequest::from_json_text(R"({"op":"teleport"})"),
               ParseError);
  EXPECT_THROW(
      QueryRequest::from_json_text(R"({"op":"list","scenario":"x"})"),
      ParseError);
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"window_aggregate","scenario":"s",)"
                   R"("channel":"c","start":10,"end":5})"),
               ParseError);
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"regimes","scenario":"s","intensity":)"
                   R"({"points":[[10,1],[5,2]]}})"),
               ParseError);
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"regimes","scenario":"s","intensity":)"
                   R"({"constant_g_per_kwh":1,"points":[[0,1]]}})"),
               ParseError);
}

TEST(QueryRequest, TraceIdsAbove2To53AreOneLineParseErrors) {
  // Past 2^53 a double names no single integer id, and past 2^64 the
  // conversion to an unsigned id would be undefined behaviour.
  for (const std::string id : {"1e30", "18446744073709551616",
                               "9007199254740994", "0", "-3", "2.5"}) {
    try {
      (void)QueryRequest::from_json_text(R"({"op":"trace","request":)" + id +
                                         "}");
      FAIL() << "accepted request id " << id;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace request must be a positive integer id"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
  EXPECT_EQ(QueryRequest::from_json_text(
                R"({"op":"trace","request":9007199254740992})")
                .trace_request,
            std::uint64_t{1} << 53);
}

TEST_F(QueryEngineTest, HandleLineWrapsOkAndErrorEnvelopes) {
  const QueryEngine engine(stores_);
  const std::string ok =
      engine.handle_line(R"({"op":"list","id":"tag-7"})");
  EXPECT_EQ(ok.find(R"({"ok":true,"op":"list","id":"tag-7","result":)"), 0u);
  EXPECT_EQ(ok.find('\n'), std::string::npos);

  const std::string bad_json = engine.handle_line("{not json");
  EXPECT_EQ(bad_json.find(R"({"ok":false,"error":)"), 0u);

  // Domain errors echo the request id.
  const std::string bad_scenario = engine.handle_line(
      R"({"op":"compare","a":"nope","b":"base","id":"cmp"})");
  EXPECT_EQ(bad_scenario.find(R"({"ok":false,"id":"cmp","error":)"), 0u);
}

TEST_F(QueryEngineTest, InlineSpecOverrideMatchesWireSpelling) {
  const QueryEngine engine(stores_);
  // The same what-if phrased in the scenario-spec grammar and in the
  // wire-level members must canonicalize — and answer — identically.
  const auto spec_phrased = QueryRequest::from_json_text(
      R"({"op":"whatif","scenario":"base","channel":"cabinet_kw",)"
      R"("spec":{"grid":{"constant_g_per_kwh":100},)"
      R"("scope3":{"total_tonnes":1461,"lifetime_years":4}}})");
  const auto wire_phrased = QueryRequest::from_json_text(
      R"({"op":"whatif","scenario":"base","channel":"cabinet_kw",)"
      R"("intensity":{"constant_g_per_kwh":100},)"
      R"("scope3":{"total_tonnes":1461,"lifetime_years":4}})");
  EXPECT_EQ(spec_phrased.canonical_key(), wire_phrased.canonical_key());
  EXPECT_EQ(engine.evaluate(spec_phrased).dump(0),
            engine.evaluate(wire_phrased).dump(0));
}

TEST_F(QueryEngineTest, InlineSpecOverrideAcceptsIsoPointTimes) {
  const QueryEngine engine(stores_);
  // The spec grammar's grid points accept ISO date-time strings; the
  // wire-level intensity takes the resolved epochs.
  const auto spec_phrased = QueryRequest::from_json_text(
      R"({"op":"regimes","scenario":"base","start":0,"end":130000,)"
      R"("spec":{"grid":{"points":[[0,0],[130000,130]]}}})");
  const JsonValue r = engine.evaluate(spec_phrased);
  EXPECT_NEAR(r.at("seconds").at("balanced").as_number(), 70000.0, 1e-6);
}

TEST(QueryRequest, SpecOverrideValidation) {
  // spec excludes the wire-level members it resolves into.
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"whatif","scenario":"s","channel":"c",)"
                   R"("intensity":{"constant_g_per_kwh":1},)"
                   R"("spec":{"grid":{"constant_g_per_kwh":2}}})"),
               ParseError);
  // A spec with no grid leaves regimes/whatif without an intensity.
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"whatif","scenario":"s","channel":"c",)"
                   R"("spec":{"scope3":{"total_tonnes":1,)"
                   R"("lifetime_years":1}}})"),
               ParseError);
  // Errors inside the fragment carry scenario-schema paths.
  try {
    (void)QueryRequest::from_json_text(
        R"({"op":"regimes","scenario":"s","spec":{"policy":"eco"}})");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "spec: $.spec.policy: unknown member");
  }
  // list/compare/window_aggregate do not take a spec member.
  EXPECT_THROW(QueryRequest::from_json_text(
                   R"({"op":"list","spec":{"grid":)"
                   R"({"constant_g_per_kwh":1}}})"),
               ParseError);
}

TEST_F(QueryEngineTest, ResponsesAreByteStableAcrossRepeats) {
  const QueryEngine engine(stores_);
  const std::string line =
      R"({"op":"whatif","scenario":"eco","channel":"cabinet_kw",)"
      R"("intensity":{"points":[[0,20],[864000,120]]}})";
  const std::string first = engine.handle_line(line);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(engine.handle_line(line), first);
}

// ---------------------------------------------------------------------------
// One grammar for pricing inputs: the wire members `intensity` / `scope3`
// are the scenario spec's `grid` / `scope3` sections, so each fragment
// answers the same under `"spec": {...}` — identical bytes when valid, the
// same reason at the spelling's own path when not.

struct InputCase {
  const char* name;
  const char* member;    ///< "intensity" or "scope3"
  const char* fragment;  ///< the member's JSON value
  const char* error;     ///< wire-spelling error; nullptr when valid
};

constexpr InputCase kInputCases[] = {
    {"valid constant", "intensity", R"({"constant_g_per_kwh":75})", nullptr},
    {"valid curve", "intensity", R"({"points":[[0,20],[864000,120]]})",
     nullptr},
    {"valid ISO curve", "intensity",
     R"({"points":[["1970-01-01",20],["1970-01-11",120]]})", nullptr},
    {"unknown member", "intensity", R"({"constant_g_per_kwh":50,"bogus":1})",
     "spec: $.intensity.bogus: unknown member"},
    {"negative constant", "intensity", R"({"constant_g_per_kwh":-5})",
     "spec: $.intensity.constant_g_per_kwh: must be non-negative"},
    {"negative point", "intensity", R"({"points":[[0,20],[100,-1]]})",
     "spec: $.intensity.points[1][1]: must be non-negative"},
    {"string constant", "intensity", R"({"constant_g_per_kwh":"50"})",
     "spec: $.intensity.constant_g_per_kwh: expected a number, got a "
     "string"},
    {"string point", "intensity", R"({"points":[[0,"20"]]})",
     "spec: $.intensity.points[0][1]: expected a number, got a string"},
    {"empty points", "intensity", R"({"points":[]})",
     "spec: $.intensity.points: must not be empty"},
    {"unsorted points", "intensity", R"({"points":[[10,1],[5,2]]})",
     "spec: $.intensity.points[1][0]: breakpoints must be strictly "
     "time-sorted"},
    {"neither form", "intensity", "{}",
     "spec: $.intensity: exactly one of constant_g_per_kwh or points is "
     "required"},
    {"valid scope3", "scope3", R"({"total_tonnes":1461,"lifetime_years":4})",
     nullptr},
    {"scope3 unknown member", "scope3",
     R"({"total_tonnes":1461,"lifetime_years":4,"x":1})",
     "spec: $.scope3.x: unknown member"},
    {"scope3 missing member", "scope3", R"({"total_tonnes":1461})",
     "spec: $.scope3.lifetime_years: missing required member"},
    {"scope3 zero total", "scope3", R"({"total_tonnes":0,"lifetime_years":4})",
     "spec: $.scope3.total_tonnes: must be positive"},
};

/// `text` with every `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

TEST_F(QueryEngineTest, PricingInputsAnswerAlikeUnderBothSpellings) {
  const QueryEngine engine(stores_);
  for (const InputCase& c : kInputCases) {
    const bool is_grid = std::string(c.member) == "intensity";
    const std::string grid =
        is_grid ? c.fragment : R"({"constant_g_per_kwh":100})";
    const std::string scope3 =
        is_grid ? "" : std::string(R"(,"scope3":)") + c.fragment;
    for (const std::string head :
         {R"({"op":"whatif","scenario":"base","channel":"cabinet_kw",)",
          R"({"op":"regimes","scenario":"base",)"}) {
      const std::string wire = engine.handle_line(
          head + R"("intensity":)" + grid + scope3 + "}");
      const std::string spec = engine.handle_line(
          head + R"("spec":{"grid":)" + grid + scope3 + "}}");
      if (c.error == nullptr) {
        EXPECT_EQ(wire.rfind(R"({"ok":true,)", 0), 0u) << c.name << wire;
        EXPECT_EQ(spec, wire) << c.name;
        continue;
      }
      EXPECT_EQ(wire, render_error("", c.error)) << c.name;
      // The spec spelling roots the same reason at $.spec.<section>.
      const std::string section = is_grid ? "grid" : "scope3";
      EXPECT_EQ(spec, replaced(wire, std::string("$.") + c.member,
                               "$.spec." + section))
          << c.name;
    }
  }
}

TEST(QueryRequest, CommittedRequestsKeepTheirCanonicalKeys) {
  // Cache keys of the committed request streams, as rendered before the
  // intensity/scope3 members moved onto the spec codec: the move must not
  // change one byte of any key (or of the goldens keyed by them).
  const std::string root = HPCEM_SOURCE_DIR;
  std::ifstream golden(root +
                       "/tests/data/serve-canonical-keys.golden.ndjson");
  ASSERT_TRUE(golden) << "missing canonical-key golden";
  std::size_t checked = 0;
  for (const char* requests :
       {"/scenarios/ci/requests.ndjson",
        "/bench/baselines/serve/requests.ndjson"}) {
    std::ifstream in(root + requests);
    ASSERT_TRUE(in) << requests;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::string want;
      ASSERT_TRUE(std::getline(golden, want)) << "golden too short";
      EXPECT_EQ(QueryRequest::from_json_text(line).canonical_key(), want)
          << requests << ": " << line;
      ++checked;
    }
  }
  std::string extra;
  EXPECT_FALSE(std::getline(golden, extra)) << "golden too long";
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace hpcem::serve
