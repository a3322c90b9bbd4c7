#include "workload/trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/text_table.hpp"

namespace hpcem {

namespace {

// Row parsers: every error names the row's source line,
// `job trace: line N: ...`.

[[noreturn]] void bad_row(std::size_t line, const std::string& why) {
  throw ParseError("job trace: line " + std::to_string(line) + ": " + why);
}

/// A finite number, the whole cell consumed.
double parse_double(const std::string& s, const char* field,
                    std::size_t line) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    bad_row(line, std::string("bad ") + field + ": " + s);
  }
  return v;
}

/// An integer field in [min, 2^53], the range a double holds exactly.
/// Only decimal digits are accepted, read exactly (no sign, exponent or
/// fraction), so 2^53 + 1 is rejected rather than rounded to 2^53.
std::uint64_t parse_integer(const std::string& s, const char* field,
                            std::uint64_t min, std::size_t line) {
  constexpr std::uint64_t kMax = std::uint64_t{1} << 53;
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc{} || ptr != last || v < min || v > kMax) {
    bad_row(line, std::string("bad ") + field + ": " + s +
                      " (must be an integer in [" + std::to_string(min) +
                      ", 2^53])");
  }
  return v;
}

std::string pstate_code(const PState& p) {
  return TextTable::num(p.nominal.to_ghz(), 2) + (p.turbo ? "+turbo" : "");
}

PState parse_pstate(const std::string& s, std::size_t line) {
  const bool turbo = s.ends_with("+turbo");
  const std::string num = turbo ? s.substr(0, s.size() - 6) : s;
  PState p{Frequency::ghz(parse_double(num, "pstate", line)), turbo};
  if (!is_valid_pstate(p)) bad_row(line, "bad pstate: " + s);
  return p;
}

}  // namespace

std::string jobs_to_csv(const std::vector<JobSpec>& jobs,
                        const AppCatalog& catalog) {
  CsvWriter w({"id", "app", "nodes", "ref_runtime_s", "submit_s",
               "walltime_s", "user_pstate", "silicon"});
  for (const auto& j : jobs) {
    w.add_row({std::to_string(j.id), catalog.name(j.app),
               std::to_string(j.nodes),
               TextTable::num(j.ref_runtime.sec(), 3),
               TextTable::num(j.submit_time.sec(), 3),
               TextTable::num(j.requested_walltime.sec(), 3),
               j.user_pstate ? pstate_code(*j.user_pstate) : "",
               TextTable::num(j.silicon_factor, 6)});
  }
  return w.str();
}

std::vector<JobSpec> jobs_from_csv(const std::string& text,
                                   const AppCatalog& catalog) {
  const CsvTable t = parse_csv(text);
  const std::size_t c_id = t.column("id");
  const std::size_t c_app = t.column("app");
  const std::size_t c_nodes = t.column("nodes");
  const std::size_t c_ref = t.column("ref_runtime_s");
  const std::size_t c_sub = t.column("submit_s");
  const std::size_t c_wall = t.column("walltime_s");
  const std::size_t c_ps = t.column("user_pstate");
  const std::size_t c_sil = t.column("silicon");

  std::vector<JobSpec> jobs;
  jobs.reserve(t.rows.size());
  std::unordered_set<JobId> ids;
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const auto& row = t.rows[r];
    const std::size_t line = t.lines[r];
    JobSpec j;
    j.id = parse_integer(row[c_id], "id", 0, line);
    if (!ids.insert(j.id).second) {
      bad_row(line, "duplicate id: " + std::to_string(j.id));
    }
    const std::optional<AppId> app = catalog.find(row[c_app]);
    if (!app) bad_row(line, "unknown application: " + row[c_app]);
    j.app = *app;
    j.nodes = parse_integer(row[c_nodes], "nodes", 1, line);
    j.ref_runtime =
        Duration::seconds(parse_double(row[c_ref], "ref_runtime_s", line));
    j.submit_time = SimTime(parse_double(row[c_sub], "submit_s", line));
    j.requested_walltime =
        Duration::seconds(parse_double(row[c_wall], "walltime_s", line));
    if (!row[c_ps].empty()) j.user_pstate = parse_pstate(row[c_ps], line);
    j.silicon_factor = parse_double(row[c_sil], "silicon", line);
    jobs.push_back(j);
  }
  return jobs;
}

void write_jobs_file(const std::filesystem::path& path,
                     const std::vector<JobSpec>& jobs,
                     const AppCatalog& catalog) {
  const std::string text = jobs_to_csv(jobs, catalog);
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write jobs file: " + path.string());
  out << text;
  if (!out) throw ParseError("I/O error writing jobs file: " + path.string());
}

std::vector<JobSpec> read_jobs_file(const std::filesystem::path& path,
                                    const AppCatalog& catalog) {
  const auto text = read_text_file(path.string());
  if (!text) throw ParseError("cannot open jobs file: " + path.string());
  return jobs_from_csv(*text, catalog);
}

std::string records_to_csv(const std::vector<JobRecord>& recs,
                           const AppCatalog& catalog) {
  CsvWriter w({"id", "app", "nodes", "submit", "start", "end", "pstate",
               "mode", "node_energy_kwh", "node_power_w", "node_hours"});
  for (const auto& r : recs) {
    w.add_row({std::to_string(r.spec.id), catalog.name(r.spec.app),
               std::to_string(r.spec.nodes),
               iso_date_time(r.spec.submit_time), iso_date_time(r.start_time),
               iso_date_time(r.end_time), pstate_code(r.pstate),
               to_string(r.mode), TextTable::num(r.node_energy.to_kwh(), 3),
               TextTable::num(r.node_power_w.w(), 1),
               TextTable::num(r.node_hours(), 3)});
  }
  return w.str();
}

}  // namespace hpcem
