#include "serve/query.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <span>

#include "core/spec_io.hpp"
#include "obs/span.hpp"
#include "grid/carbon.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace hpcem::serve {

namespace {

constexpr double kSecondsPerYear = 365.25 * 86400.0;

/// A request time member: epoch seconds as a number, or an ISO date-time
/// string ("YYYY-MM-DD", "YYYY-MM-DD hh:mm[:ss]").
SimTime time_member(const JsonValue& v, const std::string& member) {
  if (v.is_number()) return SimTime(v.as_number());
  if (v.is_string()) {
    if (const auto t = parse_date_time(v.as_string())) return *t;
    throw ParseError("query: bad " + member + " timestamp '" +
                     v.as_string() + "'");
  }
  throw ParseError("query: " + member +
                   " must be epoch seconds or an ISO date-time string");
}

const char* strategy_name(OperationalStrategy s) {
  switch (s) {
    case OperationalStrategy::kMaximisePerformance: return "performance";
    case OperationalStrategy::kBalance: return "balance";
    case OperationalStrategy::kMaximiseEnergyEfficiency:
      return "energy-efficiency";
  }
  return "unknown";
}

const char* regime_name(EmissionsRegime r) {
  switch (r) {
    case EmissionsRegime::kEmbodiedDominated: return "embodied_dominated";
    case EmissionsRegime::kBalanced: return "balanced";
    case EmissionsRegime::kOperationalDominated:
      return "operational_dominated";
  }
  return "unknown";
}

/// Scope-2 grams of the intervals j in [a, b) of a kW channel, each
/// charged at a piecewise-linear curve at its midpoint m_j, from prefix
/// differences in O(k log n).  On segment k the curve is g_k + beta_k (m -
/// x_k), so the segment's sum of A_j g(m_j) is
///   g_k SA + beta_k (SM - (x_k - t0) SA),
/// with SA the sum of the interval terms A_j (prefix_integral) and SM the
/// sum of A_j (m_j - t0) (prefix_moment); taking the slope term relative
/// to the segment start limits the cancellation.  Midpoints at or before
/// the first point and after the last are charged at the end-point
/// intensities, as GridIntensitySeries::at clamps them.
double curve_scope2_g(const StoredChannel& ch,
                      const std::vector<std::pair<double, double>>& points,
                      std::size_t a, std::size_t b) {
  const std::span<const double> t = ch.times;
  const double t0 = t.front();
  // Intervals [p, q) are prefix slots q + 1 minus p + 1.
  const auto sum_a = [&ch](std::size_t p, std::size_t q) {
    return ch.prefix_integral[q + 1] - ch.prefix_integral[p + 1];
  };
  const auto sum_m = [&ch](std::size_t p, std::size_t q) {
    return ch.prefix_moment[q + 1] - ch.prefix_moment[p + 1];
  };
  // First interval in [from, b) whose midpoint lies after x: midpoints of
  // non-decreasing times are non-decreasing.
  const auto after = [&t, b](std::size_t from, double x) {
    return *std::ranges::partition_point(
        std::views::iota(from, b),
        [&t, x](std::size_t j) { return 0.5 * (t[j] + t[j + 1]) <= x; });
  };

  CompensatedSum co2;  // g/kWh * kW s
  std::size_t p = after(a, points.front().first);
  co2.add(points.front().second * sum_a(a, p));
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const auto [x0, g0] = points[k];
    const auto [x1, g1] = points[k + 1];
    const std::size_t q = after(p, x1);
    const double sa = sum_a(p, q);
    const double beta = (g1 - g0) / (x1 - x0);
    co2.add(g0 * sa + beta * (sum_m(p, q) - (x0 - t0) * sa));
    p = q;
  }
  co2.add(points.back().second * sum_a(p, b));
  return co2.value() / 3600.0;
}

/// Reject members outside `allowed` so a typo cannot silently produce a
/// default-valued (and cached) answer to a different question.
void reject_unknown_members(const JsonValue& v,
                            std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : v.as_object()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      throw ParseError("query: unknown member '" + key + "'");
    }
  }
}

}  // namespace

std::string QueryRequest::op_name(Op op) {
  switch (op) {
    case Op::kList: return "list";
    case Op::kWindowAggregate: return "window_aggregate";
    case Op::kRegimes: return "regimes";
    case Op::kCompare: return "compare";
    case Op::kWhatIf: return "whatif";
    case Op::kStats: return "stats";
    case Op::kTrace: return "trace";
  }
  return "unknown";
}

QueryRequest QueryRequest::from_json(const JsonValue& v) {
  QueryRequest r;
  const std::string& op = v.at("op").as_string();
  if (op == "list") {
    r.op = Op::kList;
    reject_unknown_members(v, {"op", "id"});
  } else if (op == "window_aggregate") {
    r.op = Op::kWindowAggregate;
    reject_unknown_members(v,
                           {"op", "id", "scenario", "channel", "start", "end"});
    r.scenario = v.at("scenario").as_string();
    r.channel = v.at("channel").as_string();
  } else if (op == "regimes") {
    r.op = Op::kRegimes;
    reject_unknown_members(v, {"op", "id", "scenario", "intensity", "start",
                               "end", "scope3", "spec"});
    r.scenario = v.at("scenario").as_string();
  } else if (op == "compare") {
    r.op = Op::kCompare;
    reject_unknown_members(v, {"op", "id", "a", "b"});
    r.scenario_a = v.at("a").as_string();
    r.scenario_b = v.at("b").as_string();
  } else if (op == "whatif") {
    r.op = Op::kWhatIf;
    reject_unknown_members(v, {"op", "id", "scenario", "channel", "intensity",
                               "start", "end", "scope3", "spec"});
    r.scenario = v.at("scenario").as_string();
    r.channel = v.at("channel").as_string();
  } else if (op == "stats") {
    r.op = Op::kStats;
    reject_unknown_members(v, {"op", "id"});
  } else if (op == "trace") {
    r.op = Op::kTrace;
    reject_unknown_members(v, {"op", "id", "request"});
    const double n = v.at("request").as_number();
    // Above 2^53 a double no longer names one integer, and past 2^64 the
    // cast below would be undefined.
    constexpr double kMaxExactId = 9007199254740992.0;  // 2^53
    if (n < 1.0 || n > kMaxExactId || n != std::floor(n)) {
      throw ParseError(
          "query: trace request must be a positive integer id of at most "
          "2^53");
    }
    r.trace_request = static_cast<std::uint64_t>(n);
  } else {
    throw ParseError("query: unknown op '" + op + "'");
  }

  if (const JsonValue* id = v.get("id")) r.id = id->as_string();
  if (const JsonValue* start = v.get("start")) {
    r.start = time_member(*start, "start");
  }
  if (const JsonValue* end = v.get("end")) r.end = time_member(*end, "end");
  if (r.start && r.end && *r.end < *r.start) {
    throw ParseError("query: end must not precede start");
  }
  // `intensity` / `scope3` are the scenario-file `grid` / `scope3`
  // sections (docs/SCENARIO_SCHEMA.md), parsed by the same codec, so a
  // request and a committed scenario state pricing inputs one way.
  if (const JsonValue* intensity = v.get("intensity")) {
    r.intensity = grid_from_json(*intensity, "$.intensity");
  }
  if (const JsonValue* scope3 = v.get("scope3")) {
    r.embodied = scope3_from_json(*scope3, "$.scope3");
  }
  if (const JsonValue* spec = v.get("spec")) {
    // Inline scenario-spec fragment holding the same two sections.
    // Mutually exclusive with the members it resolves into — the
    // canonical key (and so the cache) only ever sees the resolved
    // intensity/scope3 form.
    if (r.intensity || r.embodied) {
      throw ParseError(
          "query: spec excludes the intensity and scope3 members");
    }
    SpecOverrides o = spec_overrides_from_json(*spec);
    r.intensity = std::move(o.grid);
    r.embodied = o.scope3;
  }
  if ((r.op == Op::kRegimes || r.op == Op::kWhatIf) && !r.intensity) {
    throw ParseError("query: " + op_name(r.op) +
                     " needs an intensity (or a spec with a grid section)");
  }
  return r;
}

QueryRequest QueryRequest::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

JsonValue QueryRequest::to_canonical_json() const {
  JsonValue v = JsonValue::object();
  v.set("op", op_name(op));
  if (!id.empty()) v.set("id", id);
  if (op == Op::kCompare) {
    v.set("a", scenario_a);
    v.set("b", scenario_b);
  }
  if (op == Op::kTrace) {
    v.set("request", static_cast<double>(trace_request));
  }
  if (!scenario.empty()) v.set("scenario", scenario);
  if (!channel.empty()) v.set("channel", channel);
  if (start) v.set("start", start->sec());
  if (end) v.set("end", end->sec());
  if (intensity) v.set("intensity", grid_to_json(*intensity));
  if (embodied) v.set("scope3", scope3_to_json(*embodied));
  return v;
}

std::string QueryRequest::canonical_key() const {
  return to_canonical_json().dump(0);
}

std::string render_response(const QueryRequest& request,
                            const JsonValue& result) {
  JsonValue v = JsonValue::object();
  v.set("ok", true);
  v.set("op", QueryRequest::op_name(request.op));
  if (!request.id.empty()) v.set("id", request.id);
  v.set("result", result);
  return v.dump(0);
}

std::string render_error(const std::string& id, const std::string& message) {
  JsonValue v = JsonValue::object();
  v.set("ok", false);
  if (!id.empty()) v.set("id", id);
  v.set("error", message);
  return v.dump(0);
}

JsonValue QueryEngine::evaluate(const QueryRequest& request) const {
  switch (request.op) {
    case QueryRequest::Op::kList: return list();
    case QueryRequest::Op::kWindowAggregate:
      return window_aggregate(request);
    case QueryRequest::Op::kRegimes: return regimes(request);
    case QueryRequest::Op::kCompare: return compare(request);
    case QueryRequest::Op::kWhatIf: return whatif(request);
    case QueryRequest::Op::kStats:
    case QueryRequest::Op::kTrace:
      // Admin commands read front/telemetry state the engine cannot see;
      // ServeFront answers them before the engine is ever reached.
      throw InvalidArgument("query: " + QueryRequest::op_name(request.op) +
                            " is a serve-front command, not an engine query");
  }
  throw InvalidArgument("query: unhandled op");
}

std::string QueryEngine::handle_line(const std::string& line) const {
  QueryRequest request;
  try {
    request = QueryRequest::from_json_text(line);
  } catch (const Error& e) {
    return render_error("", e.what());
  }
  try {
    return render_response(request, evaluate(request));
  } catch (const Error& e) {
    return render_error(request.id, e.what());
  }
}

JsonValue QueryEngine::list() const {
  HPCEM_OBS_SPAN("serve.query.list");
  JsonValue scenarios = JsonValue::array();
  for (const std::string& name : stores_.scenario_names()) {
    const StoredScenario& s = stores_.at(name);
    JsonValue o = JsonValue::object();
    o.set("scenario", s.name);
    o.set("source", s.source);
    o.set("machine", s.machine);
    o.set("window_start", s.window_start.sec());
    o.set("window_end", s.window_end.sec());
    o.set("replicates", s.replicates);
    o.set("completed_jobs", s.headline.completed_jobs);
    o.set("window_energy_kwh", s.headline.window_energy_kwh.kwh());
    JsonValue channels = JsonValue::array();
    for (const StoredChannel& c : s.channels) {
      JsonValue ch = JsonValue::object();
      ch.set("name", c.name);
      ch.set("unit", c.unit);
      ch.set("samples", c.aggregate.samples);
      ch.set("has_series", c.has_series());
      channels.push_back(std::move(ch));
    }
    o.set("channels", std::move(channels));
    scenarios.push_back(std::move(o));
  }
  JsonValue result = JsonValue::object();
  result.set("scenarios", std::move(scenarios));
  return result;
}

JsonValue QueryEngine::window_aggregate(const QueryRequest& r) const {
  HPCEM_OBS_SPAN("serve.query.window_aggregate");
  const StoredScenario& s = stores_.at(r.scenario);
  const StoredChannel* ch = s.find_channel(r.channel);
  require(ch != nullptr, "query: unknown channel '", r.channel,
          "' in scenario '", r.scenario, "'");
  const ChannelAggregate& a = ch->aggregate;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);

  WindowAggregate w;
  if (!r.start && !r.end) {
    // No window: the whole channel, answered exactly from the streaming
    // aggregates.
    w.samples = a.samples;
    w.mean = a.mean;
    w.min = a.min;
    w.max = a.max;
    w.integral = a.integral;
    w.first_time = a.first_time;
    w.last_time = a.last_time;
  } else {
    w = ArtifactStore::window_aggregate(*ch, start, end);
  }

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("channel", ch->name);
  result.set("unit", ch->unit);
  result.set("start", start.sec());
  result.set("end", end.sec());
  result.set("samples", w.samples);
  if (w.samples > 0) {
    result.set("mean", w.mean);
    result.set("min", w.min);
    result.set("max", w.max);
    result.set("integral", w.integral);
    result.set("first_time", w.first_time.sec());
    result.set("last_time", w.last_time.sec());
    // A kW channel's trapezoidal integral is kW s: surface the energy.
    if (ch->unit == "kW") result.set("energy_kwh", w.integral / 3600.0);
  }
  return result;
}

JsonValue QueryEngine::regimes(const QueryRequest& r) const {
  HPCEM_OBS_SPAN("serve.query.regimes");
  const StoredScenario& s = stores_.at(r.scenario);
  HPCEM_ASSERT(r.intensity.has_value(), "regimes: parsed without intensity");
  const GridIntensitySeries& intensity = *r.intensity;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);
  require(end > start, "query: regimes needs a non-empty [start, end)");

  // Segment boundaries: the window ends plus every breakpoint inside it.
  std::vector<double> bounds{start.sec()};
  if (!intensity.constant) {
    for (const auto& [t, g] : intensity.points) {
      if (t > start.sec() && t < end.sec()) bounds.push_back(t);
    }
  }
  bounds.push_back(end.sec());

  // Within a linear segment, split at the §2 thresholds (30 and 100
  // gCO2/kWh) so every sub-interval lies in exactly one regime; classify
  // it at its midpoint.  Exact — no sampling grid.
  double seconds[3] = {0.0, 0.0, 0.0};
  CompensatedSum intensity_integral;  // g/kWh * s, for the mean
  constexpr double kThresholds[2] = {30.0, 100.0};
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double t0 = bounds[i];
    const double t1 = bounds[i + 1];
    const double v0 = intensity.at(SimTime(t0)).gkwh();
    const double v1 = intensity.at(SimTime(t1)).gkwh();
    intensity_integral.add(0.5 * (v0 + v1) * (t1 - t0));

    std::vector<double> cuts{t0};
    for (const double threshold : kThresholds) {
      if ((v0 - threshold) * (v1 - threshold) < 0.0) {
        cuts.push_back(t0 + (threshold - v0) / (v1 - v0) * (t1 - t0));
      }
    }
    cuts.push_back(t1);
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const double mid = 0.5 * (cuts[k] + cuts[k + 1]);
      const double f = t1 > t0 ? (mid - t0) / (t1 - t0) : 0.0;
      const double vmid = v0 + f * (v1 - v0);
      const auto regime =
          classify_regime(CarbonIntensity::g_per_kwh(vmid));
      seconds[static_cast<int>(regime)] += cuts[k + 1] - cuts[k];
    }
  }

  const double total = (end - start).sec();
  const double mean_g = intensity_integral.value() / total;

  // §2 strategy at the period-mean intensity, using the scenario's mean
  // facility draw to balance the scopes.
  const EmbodiedParams embodied = r.embodied.value_or(EmbodiedParams{});
  const EmissionsModel model(embodied, s.headline.mean_kw.to_power());
  const CarbonIntensity mean_ci = CarbonIntensity::g_per_kwh(mean_g);

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("start", start.sec());
  result.set("end", end.sec());
  JsonValue secs = JsonValue::object();
  JsonValue shares = JsonValue::object();
  int dominant = 0;
  for (int k = 0; k < 3; ++k) {
    const char* name = regime_name(static_cast<EmissionsRegime>(k));
    secs.set(name, seconds[k]);
    shares.set(name, seconds[k] / total);
    if (seconds[k] > seconds[dominant]) dominant = k;
  }
  result.set("seconds", std::move(secs));
  result.set("shares", std::move(shares));
  result.set("dominant",
             regime_name(static_cast<EmissionsRegime>(dominant)));
  result.set("mean_intensity_g_per_kwh", mean_g);
  result.set("scope2_share_at_mean", model.scope2_share(mean_ci));
  result.set("strategy", strategy_name(model.recommend(mean_ci)));
  return result;
}

JsonValue QueryEngine::compare(const QueryRequest& r) const {
  HPCEM_OBS_SPAN("serve.query.compare");
  const StoredScenario& a = stores_.at(r.scenario_a);
  const StoredScenario& b = stores_.at(r.scenario_b);
  const auto side = [](const StoredScenario& s) {
    require(s.headline.window_energy_kwh > EnergyKwh{}, "query: scenario '",
            s.name, "' has no window energy; cannot compute perf per kWh");
    JsonValue o = JsonValue::object();
    o.set("scenario", s.name);
    o.set("completed_jobs", s.headline.completed_jobs);
    o.set("window_energy_kwh", s.headline.window_energy_kwh.kwh());
    o.set("jobs_per_kwh",
          s.headline.completed_jobs / s.headline.window_energy_kwh.kwh());
    o.set("mean_kw", s.headline.mean_kw.kw());
    o.set("mean_utilisation", s.headline.mean_utilisation);
    return o;
  };
  JsonValue oa = side(a);
  JsonValue ob = side(b);
  const double ja = oa.at("jobs_per_kwh").as_number();
  const double jb = ob.at("jobs_per_kwh").as_number();

  JsonValue result = JsonValue::object();
  result.set("a", std::move(oa));
  result.set("b", std::move(ob));
  result.set("jobs_per_kwh_ratio", ja > 0.0 ? jb / ja : 0.0);
  result.set("more_efficient", jb > ja ? "b" : (ja > jb ? "a" : "tie"));
  return result;
}

JsonValue QueryEngine::whatif(const QueryRequest& r) const {
  HPCEM_OBS_SPAN("serve.query.whatif");
  const StoredScenario& s = stores_.at(r.scenario);
  const StoredChannel* ch = s.find_channel(r.channel);
  require(ch != nullptr, "query: unknown channel '", r.channel,
          "' in scenario '", r.scenario, "'");
  require(ch->unit == "kW",
          "query: whatif re-pricing requires a power channel in kW; '",
          r.channel, "' is in ",
          ch->unit.empty() ? std::string_view("(no unit)") : ch->unit);
  HPCEM_ASSERT(r.intensity.has_value(), "whatif: parsed without intensity");
  const GridIntensitySeries& intensity = *r.intensity;
  // No explicit window means the whole stored channel — including its last
  // sample, which an end-exclusive window at window_end would drop.
  const bool whole_channel = !r.start && !r.end;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);

  // Re-price the stored energy: each retained sample interval is charged
  // at the intensity at its midpoint, from prefix differences.
  const auto [first, last] =
      whole_channel ? std::pair<std::size_t, std::size_t>{0, ch->times.size()}
                    : ArtifactStore::window_range(*ch, start, end);
  require(last > first + 1,
          "query: whatif window holds fewer than two samples of '", r.channel,
          "'");
  // The same prefix difference as window_aggregate's energy_kwh.
  const EnergyKwh energy_kwh{
      (ch->prefix_integral[last] - ch->prefix_integral[first + 1]) / 3600.0};
  const double scope2_g =
      intensity.constant
          ? (energy_kwh * *intensity.constant).g()
          : curve_scope2_g(*ch, intensity.points, first, last - 1);
  const SimTime covered_start(ch->times[first]);
  const SimTime covered_end(ch->times[last - 1]);

  // Scope-3: amortise the embodied total over the covered span — the same
  // span the energy integral describes, so the scope balance compares
  // like with like.
  const EmbodiedParams embodied = r.embodied.value_or(EmbodiedParams{});
  const double span_s = (covered_end - covered_start).sec();
  require(span_s > 0.0, "query: whatif window covers no time span");
  const double scope3_t =
      embodied.annual().t() * (span_s / kSecondsPerYear);
  const double scope2_t = CarbonMass::grams(scope2_g).t();
  const double share = scope2_t + scope3_t > 0.0
                           ? scope2_t / (scope2_t + scope3_t)
                           : 0.0;
  const double mean_g =
      energy_kwh > EnergyKwh{} ? scope2_g / energy_kwh.kwh() : 0.0;

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("channel", ch->name);
  result.set("start", covered_start.sec());
  result.set("end", covered_end.sec());
  result.set("energy_kwh", energy_kwh.kwh());
  result.set("mean_intensity_g_per_kwh", mean_g);
  result.set("scope2_tonnes", scope2_t);
  result.set("scope3_tonnes", scope3_t);
  result.set("total_tonnes", scope2_t + scope3_t);
  result.set("scope2_share", share);
  result.set("regime",
             regime_name(classify_regime(CarbonIntensity::g_per_kwh(mean_g))));
  result.set("strategy", strategy_name(strategy_for_scope2_share(share)));
  return result;
}

}  // namespace hpcem::serve
