#include "obs/metrics_export.hpp"

#include "util/error.hpp"

namespace hpcem::obs {

namespace {

/// "serve.cache.hit" -> "hpcem_serve_cache_hit" (Prometheus name charset
/// is [a-zA-Z0-9_:]; we map everything else to '_').
std::string prometheus_name(const std::string& name) {
  std::string out = "hpcem_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

void help_and_type(std::string& out, const std::string& pname,
                   const std::string& unit, const char* type) {
  out += "# HELP " + pname + " unit: " + (unit.empty() ? "none" : unit) +
         "\n";
  out += "# TYPE " + pname + " " + type + "\n";
}

}  // namespace

JsonValue metrics_json(const MetricsSnapshot& snap) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "hpcem.obs_metrics");
  doc.set("schema_version", kMetricsSchemaVersion);
  doc.set("deterministic", deterministic());

  JsonValue counters = JsonValue::array();
  for (const auto& c : snap.counters) {
    JsonValue v = JsonValue::object();
    v.set("name", c.name);
    v.set("unit", c.unit);
    v.set("value", static_cast<double>(c.value));
    counters.push_back(std::move(v));
  }
  doc.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::array();
  for (const auto& g : snap.gauges) {
    JsonValue v = JsonValue::object();
    v.set("name", g.name);
    v.set("unit", g.unit);
    v.set("value", static_cast<double>(g.value));
    gauges.push_back(std::move(v));
  }
  doc.set("gauges", std::move(gauges));

  JsonValue hists = JsonValue::array();
  for (const auto& h : snap.histograms) {
    JsonValue v = JsonValue::object();
    v.set("name", h.name);
    v.set("unit", h.unit);
    v.set("count", static_cast<double>(h.count));
    v.set("sum", static_cast<double>(h.sum));
    v.set("min", static_cast<double>(h.min));
    v.set("max", static_cast<double>(h.max));
    JsonValue buckets = JsonValue::array();
    for (const auto& [bit, count] : h.buckets) {
      JsonValue b = JsonValue::object();
      b.set("bit", bit);
      b.set("count", static_cast<double>(count));
      buckets.push_back(std::move(b));
    }
    v.set("buckets", std::move(buckets));
    hists.push_back(std::move(v));
  }
  doc.set("histograms", std::move(hists));
  return doc;
}

MetricsSnapshot metrics_from_json(const JsonValue& v) {
  require(v.at("schema").as_string() == "hpcem.obs_metrics",
          "obs::metrics_from_json: not an obs-metrics document");
  const int version = static_cast<int>(v.at("schema_version").as_number());
  require(version == kMetricsSchemaVersion,
          "obs::metrics_from_json: unsupported schema version ", version);

  MetricsSnapshot snap;
  for (const auto& c : v.at("counters").as_array()) {
    snap.counters.push_back(
        {c.at("name").as_string(), c.at("unit").as_string(),
         static_cast<std::uint64_t>(c.at("value").as_number())});
  }
  for (const auto& g : v.at("gauges").as_array()) {
    snap.gauges.push_back(
        {g.at("name").as_string(), g.at("unit").as_string(),
         static_cast<std::uint64_t>(g.at("value").as_number())});
  }
  for (const auto& h : v.at("histograms").as_array()) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = h.at("name").as_string();
    hv.unit = h.at("unit").as_string();
    hv.count = static_cast<std::uint64_t>(h.at("count").as_number());
    hv.sum = static_cast<std::uint64_t>(h.at("sum").as_number());
    hv.min = static_cast<std::uint64_t>(h.at("min").as_number());
    hv.max = static_cast<std::uint64_t>(h.at("max").as_number());
    for (const auto& b : h.at("buckets").as_array()) {
      hv.buckets.emplace_back(
          static_cast<int>(b.at("bit").as_number()),
          static_cast<std::uint64_t>(b.at("count").as_number()));
    }
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string pname = prometheus_name(c.name) + "_total";
    help_and_type(out, pname, c.unit, "counter");
    out += pname + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string pname = prometheus_name(g.name);
    help_and_type(out, pname, g.unit, "gauge");
    out += pname + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string pname = prometheus_name(h.name);
    help_and_type(out, pname, h.unit, "histogram");
    std::uint64_t cum = 0;
    for (const auto& [bit, count] : h.buckets) {
      cum += count;
      // Log2 bucket `bit` holds values <= 2^bit - 1 (bit 0 holds only 0).
      const std::uint64_t upper =
          bit == 0 ? 0
                   : (bit >= 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << bit) - 1);
      out += pname + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + std::to_string(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace hpcem::obs
