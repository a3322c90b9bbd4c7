#include "obs/postmortem.hpp"

#include <fstream>

#include "util/error.hpp"

namespace hpcem::obs {

namespace {

const char* kind_name(FlightKind kind) {
  return kind == FlightKind::kSpan ? "span" : "instant";
}

}  // namespace

JsonValue postmortem_json(const PostmortemTrigger& trigger,
                          const FlightSnapshot& snap) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "hpcem.postmortem");
  doc.set("schema_version", kPostmortemSchemaVersion);
  doc.set("deterministic", snap.deterministic);

  JsonValue t = JsonValue::object();
  t.set("reason", trigger.reason);
  t.set("request", static_cast<double>(trigger.request));
  t.set("elapsed", static_cast<double>(trigger.elapsed));
  t.set("threshold", static_cast<double>(trigger.threshold));
  doc.set("trigger", std::move(t));

  JsonValue threads = JsonValue::array();
  for (const FlightThreadTrace& thread : snap.threads) {
    JsonValue o = JsonValue::object();
    o.set("label", thread.label);
    JsonValue records = JsonValue::array();
    for (const FlightRecord& rec : thread.records) {
      JsonValue r = JsonValue::object();
      r.set("name", rec.name);
      r.set("kind", kind_name(rec.kind));
      r.set("request", static_cast<double>(rec.request));
      r.set("begin", static_cast<double>(rec.begin));
      r.set("end", static_cast<double>(rec.end));
      records.push_back(std::move(r));
    }
    o.set("records", std::move(records));
    threads.push_back(std::move(o));
  }
  doc.set("threads", std::move(threads));
  return doc;
}

void write_postmortem_file(const PostmortemTrigger& trigger,
                           const FlightSnapshot& snap,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require_state(static_cast<bool>(out), "obs: cannot write postmortem file: ",
                path);
  out << postmortem_json(trigger, snap).dump(2) << '\n';
  require_state(static_cast<bool>(out), "obs: postmortem write failed: ",
                path);
}

}  // namespace hpcem::obs
