#include "core/spec_io.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>

#include "power/pstate.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"

namespace hpcem {

namespace {

// ---------------------------------------------------------------------------
// Diagnostics.  Every schema violation is one line: `spec: $.path: why`.

constexpr std::string_view kSpecPrefix = "spec: ";

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw ParseError(std::string(kSpecPrefix) + path + ": " + why);
}

std::string type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "a bool";
    case JsonValue::Type::kNumber: return "a number";
    case JsonValue::Type::kString: return "a string";
    case JsonValue::Type::kArray: return "an array";
    case JsonValue::Type::kObject: return "an object";
  }
  return "a value";
}

const JsonValue::Object& expect_object(const JsonValue& v,
                                       const std::string& path) {
  if (!v.is_object()) {
    fail(path, "expected an object, got " + type_name(v.type()));
  }
  return v.as_object();
}

const JsonValue::Array& expect_array(const JsonValue& v,
                                     const std::string& path) {
  if (!v.is_array()) {
    fail(path, "expected an array, got " + type_name(v.type()));
  }
  return v.as_array();
}

double expect_number(const JsonValue& v, const std::string& path) {
  if (!v.is_number()) {
    fail(path, "expected a number, got " + type_name(v.type()));
  }
  return v.as_number();
}

bool expect_bool(const JsonValue& v, const std::string& path) {
  if (!v.is_bool()) {
    fail(path, "expected a bool, got " + type_name(v.type()));
  }
  return v.as_bool();
}

const std::string& expect_string(const JsonValue& v,
                                 const std::string& path) {
  if (!v.is_string()) {
    fail(path, "expected a string, got " + type_name(v.type()));
  }
  return v.as_string();
}

/// Reject any member not in `known`; the error names the first stray key
/// in document order so the diagnostic is stable.
void reject_unknown(const JsonValue::Object& obj, const std::string& path,
                    std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : obj) {
    bool ok = false;
    for (const auto& k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) fail(path + "." + key, "unknown member");
  }
}

// ---------------------------------------------------------------------------
// Scalar codecs.

/// Non-negative integer exactly representable in a double.
std::uint64_t expect_integer(const JsonValue& v, const std::string& path,
                             double max_exclusive) {
  const double n = expect_number(v, path);
  if (!(n >= 0.0) || n >= max_exclusive || std::floor(n) != n) {
    fail(path, "must be an integer in [0, 2^53)");
  }
  return static_cast<std::uint64_t>(n);
}

std::string render_hms(SimTime t) {
  const CivilDate d = date_from_sim_time(t);
  const double into = seconds_into_day(t);
  const int h = static_cast<int>(into / 3600.0);
  const int m = static_cast<int>((into - h * 3600.0) / 60.0);
  const int s = static_cast<int>(into - h * 3600.0 - m * 60.0);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s %02d:%02d:%02d", iso_date(d).c_str(),
                h, m, s);
  return buf;
}

/// Render an instant as the shortest ISO date-time that parses back to
/// exactly this value; fall back to raw epoch seconds otherwise, so every
/// representable time round-trips bit-exactly.
JsonValue time_to_json(SimTime t) {
  const CivilDate d = date_from_sim_time(t);
  if (sim_time_from_date(d) == t) return JsonValue(iso_date(d));
  if (const std::string hm = iso_date_time(t);
      parse_date_time(hm) == std::optional<SimTime>(t)) {
    return JsonValue(hm);
  }
  if (const std::string hms = render_hms(t);
      parse_date_time(hms) == std::optional<SimTime>(t)) {
    return JsonValue(hms);
  }
  return JsonValue(t.sec());
}

SimTime time_from_json(const JsonValue& v, const std::string& path) {
  if (v.is_string()) {
    const auto t = parse_date_time(v.as_string());
    if (!t) fail(path, "bad date-time '" + v.as_string() + "'");
    return *t;
  }
  if (v.is_number()) return SimTime(v.as_number());
  fail(path, "expected a date-time string or epoch seconds, got " +
                 type_name(v.type()));
}

/// Emit a duration under `<key>_days` when the day count is exact, else
/// under `<key>_s` (raw seconds always round-trip).
void set_duration(JsonValue& obj, const std::string& key, Duration d) {
  if (Duration::days(d.day()).sec() == d.sec()) {
    obj.set(key + "_days", JsonValue(d.day()));
  } else {
    obj.set(key + "_s", JsonValue(d.sec()));
  }
}

std::string machine_name(MachineModel m) {
  switch (m) {
    case MachineModel::kArcher2: return "archer2";
    case MachineModel::kTestbed: return "testbed";
    case MachineModel::kMicro: return "micro";
  }
  return "archer2";
}

MachineModel machine_from_json(const JsonValue& v, const std::string& path) {
  const std::string& s = expect_string(v, path);
  if (s == "archer2") return MachineModel::kArcher2;
  if (s == "testbed") return MachineModel::kTestbed;
  if (s == "micro") return MachineModel::kMicro;
  fail(path, "unknown machine '" + s + "' (archer2 | testbed | micro)");
}

}  // namespace

std::optional<OperatingPolicy> policy_from_name(std::string_view name) {
  if (name == "baseline") return OperatingPolicy::baseline();
  if (name == "perfdet") return OperatingPolicy::performance_determinism();
  if (name == "lowfreq") return OperatingPolicy::low_frequency_default();
  return std::nullopt;
}

namespace {

// ---------------------------------------------------------------------------
// Policy codec.  The three service policies collapse to their paper names;
// anything else is spelled out as an explicit object.

JsonValue policy_to_json(const OperatingPolicy& p) {
  if (p == OperatingPolicy::baseline()) return JsonValue("baseline");
  if (p == OperatingPolicy::performance_determinism()) {
    return JsonValue("perfdet");
  }
  if (p == OperatingPolicy::low_frequency_default()) {
    return JsonValue("lowfreq");
  }
  JsonValue o = JsonValue::object();
  o.set("bios", p.bios_mode == DeterminismMode::kPowerDeterminism
                    ? "power"
                    : "performance");
  o.set("default_ghz", p.default_pstate.nominal.to_ghz());
  o.set("turbo", p.default_pstate.turbo);
  o.set("auto_revert", p.auto_revert_enabled);
  o.set("revert_threshold", p.revert_threshold);
  return o;
}

OperatingPolicy policy_from_json(const JsonValue& v,
                                 const std::string& path) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (const auto p = policy_from_name(s)) return *p;
    fail(path, "unknown policy '" + s + "' (baseline | perfdet | lowfreq)");
  }
  const auto& obj = expect_object(v, path);
  reject_unknown(obj, path,
                 {"bios", "default_ghz", "turbo", "auto_revert",
                  "revert_threshold"});
  OperatingPolicy p;
  const JsonValue* bios = v.get("bios");
  if (!bios) fail(path + ".bios", "missing required member");
  const std::string& mode = expect_string(*bios, path + ".bios");
  if (mode == "power") {
    p.bios_mode = DeterminismMode::kPowerDeterminism;
  } else if (mode == "performance") {
    p.bios_mode = DeterminismMode::kPerformanceDeterminism;
  } else {
    fail(path + ".bios",
         "unknown BIOS mode '" + mode + "' (power | performance)");
  }
  const JsonValue* ghz = v.get("default_ghz");
  if (!ghz) fail(path + ".default_ghz", "missing required member");
  p.default_pstate.nominal =
      Frequency::ghz(expect_number(*ghz, path + ".default_ghz"));
  if (const JsonValue* t = v.get("turbo")) {
    p.default_pstate.turbo = expect_bool(*t, path + ".turbo");
  } else {
    p.default_pstate.turbo = false;
  }
  if (!is_valid_pstate(p.default_pstate)) {
    fail(path + ".default_ghz",
         "not an ARCHER2 p-state (1.5 | 2.0 | 2.25; turbo only at 2.25)");
  }
  if (const JsonValue* a = v.get("auto_revert")) {
    p.auto_revert_enabled = expect_bool(*a, path + ".auto_revert");
  }
  if (const JsonValue* r = v.get("revert_threshold")) {
    p.revert_threshold = expect_number(*r, path + ".revert_threshold");
    if (!(p.revert_threshold >= 0.0)) {
      fail(path + ".revert_threshold", "must be non-negative");
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Scheduler codec.

JsonValue weights_to_json(const PriorityWeights& w) {
  JsonValue o = JsonValue::object();
  o.set("standard", w.standard);
  o.set("short_qos", w.short_qos);
  o.set("largescale", w.largescale);
  o.set("lowpriority", w.lowpriority);
  o.set("per_wait_hour", w.per_wait_hour);
  o.set("per_node", w.per_node);
  return o;
}

PriorityWeights weights_from_json(const JsonValue& v,
                                  const std::string& path) {
  const auto& obj = expect_object(v, path);
  reject_unknown(obj, path,
                 {"standard", "short_qos", "largescale", "lowpriority",
                  "per_wait_hour", "per_node"});
  PriorityWeights w;
  const auto member = [&](const char* key, double& out) {
    if (const JsonValue* m = v.get(key)) {
      out = expect_number(*m, path + "." + key);
    }
  };
  member("standard", w.standard);
  member("short_qos", w.short_qos);
  member("largescale", w.largescale);
  member("lowpriority", w.lowpriority);
  member("per_wait_hour", w.per_wait_hour);
  member("per_node", w.per_node);
  return w;
}

// ---------------------------------------------------------------------------
// Plant / idle codec.

JsonValue idle_to_json(const IdlePowerPolicy& p) {
  JsonValue o = JsonValue::object();
  o.set("suspend_enabled", p.suspend_enabled);
  o.set("suspended_w", p.suspended.w());
  o.set("suspendable_fraction", p.suspendable_fraction);
  return o;
}

IdlePowerPolicy idle_from_json(const JsonValue& v, const std::string& path) {
  const auto& obj = expect_object(v, path);
  reject_unknown(obj, path,
                 {"suspend_enabled", "suspended_w", "suspendable_fraction"});
  IdlePowerPolicy p;
  const JsonValue* enabled = v.get("suspend_enabled");
  if (!enabled) fail(path + ".suspend_enabled", "missing required member");
  p.suspend_enabled = expect_bool(*enabled, path + ".suspend_enabled");
  if (const JsonValue* w = v.get("suspended_w")) {
    const double watts = expect_number(*w, path + ".suspended_w");
    if (!(watts >= 0.0)) fail(path + ".suspended_w", "must be non-negative");
    p.suspended = Power::watts(watts);
  }
  if (const JsonValue* f = v.get("suspendable_fraction")) {
    p.suspendable_fraction =
        expect_number(*f, path + ".suspendable_fraction");
    if (!(p.suspendable_fraction >= 0.0 && p.suspendable_fraction <= 1.0)) {
      fail(path + ".suspendable_fraction", "must be in [0,1]");
    }
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Grid / scope-3 codec (shared with the serve request members).

JsonValue grid_to_json(const GridIntensitySeries& g) {
  JsonValue o = JsonValue::object();
  if (g.constant) {
    o.set("constant_g_per_kwh", g.constant->gkwh());
  } else {
    JsonValue pts = JsonValue::array();
    for (const auto& [t, gkwh] : g.points) {
      JsonValue pt = JsonValue::array();
      pt.push_back(JsonValue(t));
      pt.push_back(JsonValue(gkwh));
      pts.push_back(std::move(pt));
    }
    o.set("points", std::move(pts));
  }
  return o;
}

GridIntensitySeries grid_from_json(const JsonValue& v,
                                   const std::string& path) {
  const auto& obj = expect_object(v, path);
  reject_unknown(obj, path, {"constant_g_per_kwh", "points"});
  const JsonValue* constant = v.get("constant_g_per_kwh");
  const JsonValue* points = v.get("points");
  if (static_cast<bool>(constant) == static_cast<bool>(points)) {
    fail(path, "exactly one of constant_g_per_kwh or points is required");
  }
  GridIntensitySeries g;
  if (constant) {
    const double gkwh =
        expect_number(*constant, path + ".constant_g_per_kwh");
    if (!(gkwh >= 0.0)) {
      fail(path + ".constant_g_per_kwh", "must be non-negative");
    }
    g.constant = CarbonIntensity::g_per_kwh(gkwh);
    return g;
  }
  const auto& arr = expect_array(*points, path + ".points");
  if (arr.empty()) fail(path + ".points", "must not be empty");
  for (std::size_t i = 0; i < arr.size(); ++i) {
    // The point's path is built only to report a violation: serve parses
    // a request's curve on every first-time query.
    const auto at = [&](const char* member) {
      return path + ".points[" + std::to_string(i) + "]" + member;
    };
    if (!arr[i].is_array()) expect_array(arr[i], at(""));  // throws
    const auto& pair = arr[i].as_array();
    if (pair.size() != 2) fail(at(""), "expected a [time, g_per_kwh] pair");
    const double t = pair[0].is_number()
                         ? pair[0].as_number()
                         : time_from_json(pair[0], at("[0]")).sec();
    const double gkwh = pair[1].is_number()
                            ? pair[1].as_number()
                            : expect_number(pair[1], at("[1]"));
    if (!(gkwh >= 0.0)) fail(at("[1]"), "must be non-negative");
    if (!g.points.empty() && t <= g.points.back().first) {
      fail(at("[0]"), "breakpoints must be strictly time-sorted");
    }
    g.points.emplace_back(t, gkwh);
  }
  return g;
}

JsonValue scope3_to_json(const EmbodiedParams& e) {
  JsonValue o = JsonValue::object();
  o.set("total_tonnes", e.total.t());
  o.set("lifetime_years", e.lifetime_years);
  return o;
}

EmbodiedParams scope3_from_json(const JsonValue& v, const std::string& path) {
  const auto& obj = expect_object(v, path);
  reject_unknown(obj, path, {"total_tonnes", "lifetime_years"});
  const JsonValue* total = v.get("total_tonnes");
  if (!total) fail(path + ".total_tonnes", "missing required member");
  const JsonValue* life = v.get("lifetime_years");
  if (!life) fail(path + ".lifetime_years", "missing required member");
  EmbodiedParams e;
  const double tonnes = expect_number(*total, path + ".total_tonnes");
  if (!(tonnes > 0.0)) fail(path + ".total_tonnes", "must be positive");
  e.total = CarbonMass::tonnes(tonnes);
  e.lifetime_years = expect_number(*life, path + ".lifetime_years");
  if (!(e.lifetime_years > 0.0)) {
    fail(path + ".lifetime_years", "must be positive");
  }
  return e;
}

namespace {

// ---------------------------------------------------------------------------
// Duration members: exactly one of <key>_days / <key>_s, or neither.

std::optional<Duration> duration_from_json(const JsonValue& parent,
                                           const std::string& path,
                                           const std::string& key) {
  const JsonValue* days = parent.get(key + "_days");
  const JsonValue* secs = parent.get(key + "_s");
  if (days && secs) {
    fail(path + "." + key + "_days", "conflicts with " + key + "_s");
  }
  if (days) {
    return Duration::days(
        expect_number(*days, path + "." + key + "_days"));
  }
  if (secs) {
    return Duration::seconds(
        expect_number(*secs, path + "." + key + "_s"));
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec -> JSON.

JsonValue scenario_to_json(const ScenarioSpec& spec) {
  JsonValue o = JsonValue::object();
  o.set("spec_version", kScenarioSpecVersion);
  o.set("name", spec.name);
  o.set("machine", machine_name(spec.machine));

  JsonValue window = JsonValue::object();
  window.set("start", time_to_json(spec.window_start));
  window.set("end", time_to_json(spec.window_end));
  o.set("window", std::move(window));

  set_duration(o, "warmup", spec.warmup);
  o.set("seed", JsonValue(static_cast<double>(spec.seed)));
  o.set("policy", policy_to_json(spec.policy));

  if (!spec.changes.empty()) {
    JsonValue changes = JsonValue::array();
    for (const auto& c : spec.changes) {
      JsonValue e = JsonValue::object();
      e.set("at", time_to_json(c.at));
      e.set("policy", policy_to_json(c.policy));
      changes.push_back(std::move(e));
    }
    o.set("changes", std::move(changes));
  }

  if (!spec.maintenance.empty()) {
    JsonValue windows = JsonValue::array();
    for (const auto& m : spec.maintenance) {
      JsonValue e = JsonValue::object();
      e.set("block_from", time_to_json(m.block_from));
      e.set("end", time_to_json(m.end));
      windows.push_back(std::move(e));
    }
    o.set("maintenance", std::move(windows));
  }

  if (spec.discipline != QueueDiscipline::kFifo ||
      !(spec.weights == PriorityWeights{})) {
    JsonValue sched = JsonValue::object();
    sched.set("discipline", spec.discipline == QueueDiscipline::kFifo
                                ? "fifo"
                                : "priority");
    if (!(spec.weights == PriorityWeights{})) {
      sched.set("weights", weights_to_json(spec.weights));
    }
    o.set("scheduler", std::move(sched));
  }

  if (spec.sample_interval || spec.metering_noise_sigma ||
      spec.offered_load || spec.user_turbo_pin_fraction) {
    JsonValue ov = JsonValue::object();
    if (spec.sample_interval) {
      ov.set("sample_interval_s", spec.sample_interval->sec());
    }
    if (spec.metering_noise_sigma) {
      ov.set("metering_noise_sigma", *spec.metering_noise_sigma);
    }
    if (spec.offered_load) ov.set("offered_load", *spec.offered_load);
    if (spec.user_turbo_pin_fraction) {
      ov.set("user_turbo_pin_fraction", *spec.user_turbo_pin_fraction);
    }
    o.set("overrides", std::move(ov));
  }

  if (spec.model_cdus || spec.model_filesystems || spec.cooling_outdoor_c ||
      !(spec.idle_policy == IdlePowerPolicy{})) {
    JsonValue plant = JsonValue::object();
    if (spec.model_cdus) plant.set("model_cdus", true);
    if (spec.model_filesystems) plant.set("model_filesystems", true);
    if (spec.cooling_outdoor_c) {
      plant.set("cooling_outdoor_c", *spec.cooling_outdoor_c);
    }
    if (!(spec.idle_policy == IdlePowerPolicy{})) {
      plant.set("idle", idle_to_json(spec.idle_policy));
    }
    o.set("plant", std::move(plant));
  }

  if (spec.grid) o.set("grid", grid_to_json(*spec.grid));
  if (spec.scope3) o.set("scope3", scope3_to_json(*spec.scope3));
  return o;
}

std::string save_scenario(const ScenarioSpec& spec) {
  return scenario_to_json(spec).dump(2) + "\n";
}

// ---------------------------------------------------------------------------
// JSON -> spec.

ScenarioSpec scenario_from_json(const JsonValue& v) {
  const auto& obj = expect_object(v, "$");

  const JsonValue* version = v.get("spec_version");
  if (!version) fail("$.spec_version", "missing required member");
  const double ver = expect_number(*version, "$.spec_version");
  if (ver != static_cast<double>(kScenarioSpecVersion)) {
    fail("$.spec_version", "unsupported version " + json_number(ver) +
                               " (expected " +
                               std::to_string(kScenarioSpecVersion) + ")");
  }

  reject_unknown(obj, "$",
                 {"spec_version", "name", "machine", "window",
                  "warmup_days", "warmup_s", "seed", "policy", "changes",
                  "maintenance", "scheduler", "overrides", "plant", "grid",
                  "scope3"});

  ScenarioSpec spec;

  const JsonValue* name = v.get("name");
  if (!name) fail("$.name", "missing required member");
  spec.name = expect_string(*name, "$.name");
  if (spec.name.empty()) fail("$.name", "must not be empty");

  const JsonValue* machine = v.get("machine");
  if (!machine) fail("$.machine", "missing required member");
  spec.machine = machine_from_json(*machine, "$.machine");

  const JsonValue* window = v.get("window");
  if (!window) fail("$.window", "missing required member");
  const auto& wobj = expect_object(*window, "$.window");
  reject_unknown(wobj, "$.window", {"start", "end"});
  const JsonValue* start = window->get("start");
  if (!start) fail("$.window.start", "missing required member");
  const JsonValue* end = window->get("end");
  if (!end) fail("$.window.end", "missing required member");
  spec.window_start = time_from_json(*start, "$.window.start");
  spec.window_end = time_from_json(*end, "$.window.end");
  if (!(spec.window_end > spec.window_start)) {
    fail("$.window", "end must follow start");
  }

  if (const auto warmup = duration_from_json(v, "$", "warmup")) {
    if (!(warmup->sec() >= 0.0)) {
      fail("$.warmup_days", "must be non-negative");
    }
    spec.warmup = *warmup;
  }

  if (const JsonValue* seed = v.get("seed")) {
    spec.seed = expect_integer(*seed, "$.seed", 9007199254740992.0);
  }

  if (const JsonValue* policy = v.get("policy")) {
    spec.policy = policy_from_json(*policy, "$.policy");
  }

  if (const JsonValue* changes = v.get("changes")) {
    const auto& arr = expect_array(*changes, "$.changes");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string at = "$.changes[" + std::to_string(i) + "]";
      const auto& cobj = expect_object(arr[i], at);
      reject_unknown(cobj, at, {"at", "policy"});
      const JsonValue* when = arr[i].get("at");
      if (!when) fail(at + ".at", "missing required member");
      const JsonValue* cp = arr[i].get("policy");
      if (!cp) fail(at + ".policy", "missing required member");
      PolicyChange change;
      change.at = time_from_json(*when, at + ".at");
      change.policy = policy_from_json(*cp, at + ".policy");
      spec.changes.push_back(change);
    }
  }

  if (const JsonValue* maintenance = v.get("maintenance")) {
    const auto& arr = expect_array(*maintenance, "$.maintenance");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string at = "$.maintenance[" + std::to_string(i) + "]";
      const auto& mobj = expect_object(arr[i], at);
      reject_unknown(mobj, at, {"block_from", "end"});
      const JsonValue* from = arr[i].get("block_from");
      if (!from) fail(at + ".block_from", "missing required member");
      const JsonValue* mend = arr[i].get("end");
      if (!mend) fail(at + ".end", "missing required member");
      MaintenanceWindow w;
      w.block_from = time_from_json(*from, at + ".block_from");
      w.end = time_from_json(*mend, at + ".end");
      if (!(w.end > w.block_from)) {
        fail(at, "end must follow block_from");
      }
      spec.maintenance.push_back(w);
    }
  }

  if (const JsonValue* sched = v.get("scheduler")) {
    const auto& sobj = expect_object(*sched, "$.scheduler");
    reject_unknown(sobj, "$.scheduler", {"discipline", "weights"});
    const JsonValue* disc = sched->get("discipline");
    if (!disc) fail("$.scheduler.discipline", "missing required member");
    const std::string& d = expect_string(*disc, "$.scheduler.discipline");
    if (d == "fifo") {
      spec.discipline = QueueDiscipline::kFifo;
    } else if (d == "priority") {
      spec.discipline = QueueDiscipline::kPriority;
    } else {
      fail("$.scheduler.discipline",
           "unknown discipline '" + d + "' (fifo | priority)");
    }
    if (const JsonValue* w = sched->get("weights")) {
      spec.weights = weights_from_json(*w, "$.scheduler.weights");
    }
  }

  if (const JsonValue* ov = v.get("overrides")) {
    const auto& oobj = expect_object(*ov, "$.overrides");
    reject_unknown(oobj, "$.overrides",
                   {"sample_interval_s", "metering_noise_sigma",
                    "offered_load", "user_turbo_pin_fraction"});
    if (const JsonValue* s = ov->get("sample_interval_s")) {
      const double sec =
          expect_number(*s, "$.overrides.sample_interval_s");
      if (!(sec > 0.0)) {
        fail("$.overrides.sample_interval_s", "must be positive");
      }
      spec.sample_interval = Duration::seconds(sec);
    }
    if (const JsonValue* s = ov->get("metering_noise_sigma")) {
      const double sigma =
          expect_number(*s, "$.overrides.metering_noise_sigma");
      if (!(sigma >= 0.0)) {
        fail("$.overrides.metering_noise_sigma", "must be non-negative");
      }
      spec.metering_noise_sigma = sigma;
    }
    if (const JsonValue* s = ov->get("offered_load")) {
      const double load = expect_number(*s, "$.overrides.offered_load");
      if (!(load > 0.0)) fail("$.overrides.offered_load", "must be positive");
      spec.offered_load = load;
    }
    if (const JsonValue* s = ov->get("user_turbo_pin_fraction")) {
      const double f =
          expect_number(*s, "$.overrides.user_turbo_pin_fraction");
      if (!(f >= 0.0 && f <= 1.0)) {
        fail("$.overrides.user_turbo_pin_fraction", "must be in [0,1]");
      }
      spec.user_turbo_pin_fraction = f;
    }
  }

  if (const JsonValue* plant = v.get("plant")) {
    const auto& pobj = expect_object(*plant, "$.plant");
    reject_unknown(pobj, "$.plant",
                   {"model_cdus", "model_filesystems", "cooling_outdoor_c",
                    "idle"});
    if (const JsonValue* c = plant->get("model_cdus")) {
      spec.model_cdus = expect_bool(*c, "$.plant.model_cdus");
    }
    if (const JsonValue* f = plant->get("model_filesystems")) {
      spec.model_filesystems = expect_bool(*f, "$.plant.model_filesystems");
    }
    if (const JsonValue* c = plant->get("cooling_outdoor_c")) {
      spec.cooling_outdoor_c =
          expect_number(*c, "$.plant.cooling_outdoor_c");
    }
    if (const JsonValue* idle = plant->get("idle")) {
      spec.idle_policy = idle_from_json(*idle, "$.plant.idle");
    }
  }

  if (const JsonValue* grid = v.get("grid")) {
    spec.grid = grid_from_json(*grid, "$.grid");
  }
  if (const JsonValue* scope3 = v.get("scope3")) {
    spec.scope3 = scope3_from_json(*scope3, "$.scope3");
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text, JsonParseOptions{.allow_comments = true});
  } catch (const ParseError& e) {
    throw ParseError(std::string("spec: ") + e.what());
  }
  return scenario_from_json(doc);
}

ScenarioSpec load_scenario_file(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw ParseError("spec: " + path + ": cannot open file");
  try {
    return parse_scenario(*text);
  } catch (const ParseError& e) {
    // "spec: $.x: why" -> "spec: <path>: $.x: why"
    const std::string what = e.what();
    const std::string prefix = "spec: ";
    if (what.rfind(prefix, 0) == 0) {
      throw ParseError("spec: " + path + ": " + what.substr(prefix.size()));
    }
    throw;
  }
}

// ---------------------------------------------------------------------------
// The serve inline-override fragment: grid + scope3 only, rooted at
// `$.spec` (the request member it arrives under).

SpecOverrides spec_overrides_from_json(const JsonValue& v) {
  const auto& obj = expect_object(v, "$.spec");
  reject_unknown(obj, "$.spec", {"grid", "scope3"});
  SpecOverrides out;
  if (const JsonValue* grid = v.get("grid")) {
    out.grid = grid_from_json(*grid, "$.spec.grid");
  }
  if (const JsonValue* scope3 = v.get("scope3")) {
    out.scope3 = scope3_from_json(*scope3, "$.spec.scope3");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Campaign manifests.

namespace {

[[noreturn]] void fail_manifest(const std::string& path,
                                const std::string& why) {
  throw ParseError("manifest: " + path + ": " + why);
}

/// Run one of the spec codecs' checks on a manifest member: its
/// `spec: $.path: why` error becomes `manifest: <file>: $.path: why`.
template <typename Check>
decltype(auto) check_manifest_member(const std::string& file,
                                     const Check& check) {
  try {
    return check();
  } catch (const ParseError& e) {
    fail_manifest(file, std::string(e.what()).substr(kSpecPrefix.size()));
  }
}

}  // namespace

CampaignManifest load_campaign_manifest(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) fail_manifest(path, "cannot open file");

  JsonValue doc;
  try {
    doc = JsonValue::parse(*text, JsonParseOptions{.allow_comments = true});
  } catch (const ParseError& e) {
    fail_manifest(path, e.what());
  }
  if (!doc.is_object()) fail_manifest(path, "$: expected an object");
  check_manifest_member(path, [&] {
    reject_unknown(doc.as_object(), "$",
                   {"manifest_version", "specs", "workers",
                    "seeds_per_scenario"});
  });

  const JsonValue* version = doc.get("manifest_version");
  if (!version) fail_manifest(path, "$.manifest_version: missing required member");
  if (!version->is_number() ||
      version->as_number() != static_cast<double>(kCampaignManifestVersion)) {
    fail_manifest(path, "$.manifest_version: unsupported version (expected " +
                            std::to_string(kCampaignManifestVersion) + ")");
  }

  const JsonValue* specs = doc.get("specs");
  if (!specs) fail_manifest(path, "$.specs: missing required member");
  if (!specs->is_array() || specs->as_array().empty()) {
    fail_manifest(path, "$.specs: expected a non-empty array of spec paths");
  }

  CampaignManifest manifest;
  if (const JsonValue* w = doc.get("workers")) {
    manifest.config.workers =
        static_cast<std::size_t>(check_manifest_member(path, [&] {
          return expect_integer(*w, "$.workers", 9007199254740992.0);
        }));
  }
  if (const JsonValue* s = doc.get("seeds_per_scenario")) {
    const std::uint64_t n = check_manifest_member(path, [&] {
      return expect_integer(*s, "$.seeds_per_scenario", 9007199254740992.0);
    });
    if (n < 1) {
      fail_manifest(path, "$.seeds_per_scenario: must be >= 1");
    }
    manifest.config.seeds_per_scenario = static_cast<std::size_t>(n);
  }

  const std::filesystem::path base =
      std::filesystem::path(path).parent_path();
  const auto& arr = specs->as_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (!arr[i].is_string()) {
      fail_manifest(path, "$.specs[" + std::to_string(i) +
                              "]: expected a spec file path");
    }
    const std::filesystem::path ref(arr[i].as_string());
    const std::string resolved =
        ref.is_absolute() ? ref.string() : (base / ref).string();
    ScenarioSpec spec = load_scenario_file(resolved);
    // Names key the campaign's rows and artifact files, so a repeat would
    // overwrite an earlier scenario's artifact.
    for (std::size_t j = 0; j < manifest.specs.size(); ++j) {
      if (manifest.specs[j].name == spec.name) {
        fail_manifest(path, "$.specs[" + std::to_string(i) +
                                "]: duplicate scenario name '" + spec.name +
                                "' (also $.specs[" + std::to_string(j) +
                                "])");
      }
    }
    manifest.specs.push_back(std::move(spec));
    manifest.spec_files.push_back(resolved);
  }
  return manifest;
}

}  // namespace hpcem
