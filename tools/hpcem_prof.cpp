// hpcem_prof: read obs traces and run artifacts, print profiles, diff runs.
//
// Input files are self-describing ("schema" member):
//   hpcem.trace        — Chrome-format span trace (obs/trace_export.hpp):
//                        prints the self/inclusive-time profile.
//   hpcem.run_artifact — run artifact (v2 embeds an "obs" section):
//                        prints the collected counters/gauges/histograms.
//   hpcem.postmortem   — serve-tier flight-recorder dump (written on query
//                        error / latency breach): prints the trigger and
//                        the per-thread recent-record table.  --postmortem
//                        requires this schema; --request N shows only the
//                        records one request id produced.
//
// A/B regression check (the CI bench gate):
//   hpcem_prof current.trace.json --compare baseline.trace.json
//              --span sim.sample.power --fail-pct 15
// prints the per-span delta table and exits 3 when the named span's self
// time regressed by more than --fail-pct percent.  --metric gates an
// embedded metric the same way (trace schema v2 "metrics" member): a
// counter's value or a histogram's sum must not grow past the gate.
// Both options take comma-separated lists; every named gate must pass.
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 regression gate
// breached.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "obs/metrics_export.hpp"
#include "obs/profile.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/text_table.hpp"

namespace {

using namespace hpcem;

constexpr int kExitRegression = 3;

JsonValue load_json(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw ParseError("cannot open: " + path);
  return JsonValue::parse(*text);
}

std::string doc_schema(const JsonValue& doc, const std::string& path) {
  const JsonValue* schema = doc.is_object() ? doc.get("schema") : nullptr;
  require(schema != nullptr && schema->is_string(), path,
          ": not an hpcem document (no \"schema\" member)");
  return schema->as_string();
}

/// Column formatting: tick counts are integers, wall times fractional us.
std::string fmt_time(double v, const std::string& unit) {
  return unit == "ticks" ? TextTable::grouped(v) : TextTable::num(v, 3);
}

void sort_entries(std::vector<obs::ProfileEntry>& entries,
                  const std::string& key) {
  const auto by = [&key](const obs::ProfileEntry& a,
                         const obs::ProfileEntry& b) {
    if (key == "inclusive" && a.inclusive != b.inclusive) {
      return a.inclusive > b.inclusive;
    }
    if (key == "count" && a.count != b.count) return a.count > b.count;
    if (key == "name") return a.name < b.name;
    if (a.self != b.self) return a.self > b.self;
    return a.name < b.name;
  };
  std::stable_sort(entries.begin(), entries.end(), by);
}

void print_profile(obs::Profile profile, const std::string& sort_key,
                   std::size_t top) {
  sort_entries(profile.entries, sort_key);
  if (top != 0 && profile.entries.size() > top) {
    profile.entries.resize(top);
  }
  const std::string u = " (" + profile.time_unit + ")";
  TextTable t({"Span", "Count", "Self" + u, "Inclusive" + u},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (const auto& e : profile.entries) {
    t.add_row({e.name, TextTable::grouped(static_cast<double>(e.count)),
               fmt_time(e.self, profile.time_unit),
               fmt_time(e.inclusive, profile.time_unit)});
  }
  std::cout << t.str();
}

void print_metrics(const obs::MetricsSnapshot& snap) {
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TextTable t({"Metric", "Kind", "Value", "Unit"},
                {Align::kLeft, Align::kLeft, Align::kRight, Align::kLeft});
    for (const auto& c : snap.counters) {
      t.add_row({c.name, "counter",
                 TextTable::grouped(static_cast<double>(c.value)), c.unit});
    }
    for (const auto& g : snap.gauges) {
      t.add_row({g.name, "gauge",
                 TextTable::grouped(static_cast<double>(g.value)), g.unit});
    }
    std::cout << t.str();
  }
  if (!snap.histograms.empty()) {
    TextTable t({"Histogram", "Count", "Sum", "Min", "Max", "Mean"},
                {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                 Align::kRight, Align::kRight});
    for (const auto& h : snap.histograms) {
      const double mean =
          h.count == 0 ? 0.0
                       : static_cast<double>(h.sum) /
                             static_cast<double>(h.count);
      t.add_row({h.name + " (" + h.unit + ")",
                 TextTable::grouped(static_cast<double>(h.count)),
                 TextTable::grouped(static_cast<double>(h.sum)),
                 TextTable::grouped(static_cast<double>(h.min)),
                 TextTable::grouped(static_cast<double>(h.max)),
                 TextTable::grouped(mean)});
    }
    std::cout << '\n' << t.str();
  }
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    std::cout << "no metrics collected\n";
  }
}

void print_postmortem(const JsonValue& doc, double request_filter) {
  const JsonValue& trigger = doc.at("trigger");
  std::cout << "trigger: reason=" << trigger.at("reason").as_string()
            << " request=" << TextTable::grouped(
                                  trigger.at("request").as_number())
            << " elapsed=" << TextTable::grouped(
                                  trigger.at("elapsed").as_number())
            << " threshold=" << TextTable::grouped(
                                    trigger.at("threshold").as_number())
            << "\n\n";

  TextTable t({"Thread", "Name", "Kind", "Request", "Begin", "End"},
              {Align::kLeft, Align::kLeft, Align::kLeft, Align::kRight,
               Align::kRight, Align::kRight});
  std::size_t shown = 0;
  std::size_t total = 0;
  for (const JsonValue& thread : doc.at("threads").as_array()) {
    const std::string& label = thread.at("label").as_string();
    for (const JsonValue& rec : thread.at("records").as_array()) {
      ++total;
      if (request_filter > 0 &&
          rec.at("request").as_number() != request_filter) {
        continue;
      }
      ++shown;
      t.add_row({label, rec.at("name").as_string(),
                 rec.at("kind").as_string(),
                 TextTable::grouped(rec.at("request").as_number()),
                 TextTable::grouped(rec.at("begin").as_number()),
                 TextTable::grouped(rec.at("end").as_number())});
    }
  }
  if (shown == 0) {
    std::cout << (request_filter > 0
                      ? "no records for request " +
                            TextTable::grouped(request_filter)
                      : std::string("no records"))
              << '\n';
    return;
  }
  std::cout << t.str();
  if (request_filter > 0) {
    std::cout << '\n'
              << shown << " of " << total << " records for request "
              << TextTable::grouped(request_filter) << '\n';
  }
}

std::string fmt_pct(double pct) {
  if (std::isinf(pct)) return "new";
  const std::string s = TextTable::num(pct, 1) + "%";
  return pct > 0.0 ? "+" + s : s;
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The gated scalar of one named metric: a counter's value or a
/// histogram's sum (total ns / ticks across all records).
bool metric_value(const obs::MetricsSnapshot& snap, const std::string& name,
                  double* out) {
  for (const auto& c : snap.counters) {
    if (c.name == name) {
      *out = static_cast<double>(c.value);
      return true;
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == name) {
      *out = static_cast<double>(h.sum);
      return true;
    }
  }
  return false;
}

obs::MetricsSnapshot embedded_metrics(const JsonValue& doc,
                                      const std::string& path) {
  const JsonValue* metrics = doc.get("metrics");
  require(metrics != nullptr, path,
          ": trace has no \"metrics\" member (needs trace schema "
          "v2; re-record the baseline)");
  return obs::metrics_from_json(*metrics);
}

/// One named gate's verdict: prints the ok/REGRESSION line, returns true
/// when the gate holds.
bool apply_gate(const std::string& what, const std::string& name, double pct,
                double fail_pct) {
  if (pct > fail_pct) {
    std::cout << "\nREGRESSION: " << name << ' ' << what << ' '
              << fmt_pct(pct) << " exceeds the " << fail_pct << "% gate\n";
    return false;
  }
  std::cout << "\nok: " << name << ' ' << what << ' ' << fmt_pct(pct)
            << " within the " << fail_pct << "% gate\n";
  return true;
}

int run_compare(const std::string& current_path,
                const std::string& baseline_path, const std::string& span,
                const std::string& metric, double fail_pct) {
  const JsonValue doc_a = load_json(baseline_path);
  const JsonValue doc_b = load_json(current_path);
  require(doc_schema(doc_a, baseline_path) == "hpcem.trace", baseline_path,
          ": expected an hpcem.trace document");
  require(doc_schema(doc_b, current_path) == "hpcem.trace", current_path,
          ": expected an hpcem.trace document");
  const obs::Profile baseline = obs::profile_trace(doc_a);
  const obs::Profile current = obs::profile_trace(doc_b);
  const auto deltas = obs::compare_profiles(baseline, current);

  const std::string u = " (" + current.time_unit + ")";
  TextTable t({"Span", "Self A" + u, "Self B" + u, "Delta", "Count A",
               "Count B"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight});
  for (const auto& d : deltas) {
    t.add_row({d.name, fmt_time(d.self_a, current.time_unit),
               fmt_time(d.self_b, current.time_unit), fmt_pct(d.self_pct),
               TextTable::grouped(static_cast<double>(d.count_a)),
               TextTable::grouped(static_cast<double>(d.count_b))});
  }
  std::cout << "A = " << baseline_path << "\nB = " << current_path << "\n\n"
            << t.str();

  bool ok = true;
  for (const std::string& name : split_names(span)) {
    bool found = false;
    for (const auto& d : deltas) {
      if (d.name != name) continue;
      found = true;
      ok = apply_gate("self time", name, d.self_pct, fail_pct) && ok;
      break;
    }
    if (!found) {
      std::cerr << "error: span not found in either trace: " << name << '\n';
      return tools::kExitFailure;
    }
  }
  if (!metric.empty()) {
    const obs::MetricsSnapshot ma = embedded_metrics(doc_a, baseline_path);
    const obs::MetricsSnapshot mb = embedded_metrics(doc_b, current_path);
    for (const std::string& name : split_names(metric)) {
      double va = 0.0;
      double vb = 0.0;
      if (!metric_value(ma, name, &va) || !metric_value(mb, name, &vb)) {
        std::cerr << "error: metric not found in both traces: " << name
                  << '\n';
        return tools::kExitFailure;
      }
      const double pct = va == 0.0
                             ? (vb == 0.0 ? 0.0
                                          : std::numeric_limits<
                                                double>::infinity())
                             : (vb - va) / va * 100.0;
      ok = apply_gate("value", name, pct, fail_pct) && ok;
    }
  }
  return ok ? tools::kExitOk : kExitRegression;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "hpcem_prof — profiles from obs traces, metrics from run artifacts, "
      "and A/B regression diffs");
  args.add_option("sort", "self",
                  "profile sort key: self | inclusive | count | name");
  args.add_option("top", "0", "show only the top N spans (0 = all)");
  args.add_option("compare", "",
                  "baseline trace to diff the input trace against");
  args.add_option("span", "",
                  "with --compare: span name(s, comma-separated) the "
                  "regression gate watches");
  args.add_option("metric", "",
                  "with --compare: embedded metric name(s, comma-separated) "
                  "to gate (counter value or histogram sum; trace v2)");
  args.add_option("fail-pct", "15",
                  "with --span/--metric: exit 3 when a gated quantity grew "
                  "by more than this percentage");
  args.add_flag("postmortem",
                "require the input to be an hpcem.postmortem flight-"
                "recorder dump");
  args.add_option("request", "0",
                  "with a postmortem: show only this request id's records "
                  "(0 = all)");
  args.allow_positionals("file",
                         "one trace.json or artifact.json to read");
  args.set_version(tools::version_line("hpcem_prof"));

  if (!args.parse(argc, argv)) return tools::parse_exit(args);
  if (args.positionals().size() != 1) {
    return tools::usage_error(
        args, "expected exactly one input file, got " +
                  std::to_string(args.positionals().size()));
  }
  const std::string sort_key = args.get("sort");
  if (sort_key != "self" && sort_key != "inclusive" && sort_key != "count" &&
      sort_key != "name") {
    return tools::usage_error(args, "bad --sort key: " + sort_key);
  }
  if ((!args.get("span").empty() || !args.get("metric").empty()) &&
      args.get("compare").empty()) {
    return tools::usage_error(args, "--span/--metric need --compare");
  }
  if (!tools::int_in_range(args, "request", 0) ||
      !tools::int_in_range(args, "top", 0)) {
    return tools::kExitUsage;
  }

  return tools::tool_main([&] {
    const std::string path = args.positionals().front();
    if (!args.get("compare").empty()) {
      return run_compare(path, args.get("compare"), args.get("span"),
                         args.get("metric"), args.get_double("fail-pct"));
    }

    const JsonValue doc = load_json(path);
    const std::string schema = doc_schema(doc, path);
    if (args.get_flag("postmortem") && schema != "hpcem.postmortem") {
      std::cerr << "error: " << path << ": --postmortem expects an "
                << "hpcem.postmortem document, got " << schema << '\n';
      return tools::kExitFailure;
    }
    if (schema == "hpcem.postmortem") {
      print_postmortem(doc, args.get_double("request"));
      return tools::kExitOk;
    }
    if (schema == "hpcem.trace") {
      print_profile(obs::profile_trace(doc), sort_key,
                    static_cast<std::size_t>(args.get_int("top")));
      return tools::kExitOk;
    }
    if (schema == "hpcem.run_artifact") {
      const JsonValue* obs_doc = doc.get("obs");
      if (obs_doc == nullptr || obs_doc->is_null()) {
        std::cerr << "error: " << path
                  << " has no obs section (run with HPCEM_OBS=1, schema v2)"
                  << '\n';
        return tools::kExitFailure;
      }
      print_metrics(obs::metrics_from_json(*obs_doc));
      return tools::kExitOk;
    }
    if (schema == "hpcem.obs_metrics") {
      print_metrics(obs::metrics_from_json(doc));
      return tools::kExitOk;
    }
    std::cerr << "error: " << path << ": unsupported document: " << schema
              << '\n';
    return tools::kExitFailure;
  });
}
