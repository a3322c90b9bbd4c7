#include "lint/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace hpcem::lint {
namespace {

namespace fs = std::filesystem;

/// Parse `hpcem-lint: allow(a, b)` out of a comment's text; empty result
/// when the comment is not a suppression.  "all" suppresses every rule.
std::vector<std::string> parse_suppression(const std::string& comment) {
  const std::string kMarker = "hpcem-lint:";
  const std::size_t at = comment.find(kMarker);
  if (at == std::string::npos) return {};
  std::size_t pos = at + kMarker.size();
  while (pos < comment.size() && comment[pos] == ' ') ++pos;
  const std::string kAllow = "allow(";
  if (comment.compare(pos, kAllow.size(), kAllow) != 0) return {};
  pos += kAllow.size();
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) return {};
  std::vector<std::string> rules;
  std::string current;
  for (std::size_t i = pos; i <= close; ++i) {
    const char c = comment[i];
    if (c == ',' || c == ')') {
      if (!current.empty()) rules.push_back(current);
      current.clear();
      continue;
    }
    if (c != ' ' && c != '\t') current += c;
  }
  return rules;
}

/// Per-file map of line -> rules suppressed on that line ("all" included
/// verbatim).  A comment alone on its line annotates the following line.
std::map<std::size_t, std::set<std::string>> suppressions(
    const FileContext& file) {
  std::map<std::size_t, std::set<std::string>> by_line;
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& t = file.tokens[i];
    if (t.kind != TokenKind::kComment) continue;
    const std::vector<std::string> rules = parse_suppression(t.text);
    if (rules.empty()) continue;
    bool alone = true;
    for (const Token& other : file.tokens) {
      if (&other != &t && other.line == t.line &&
          other.column < t.column) {
        alone = false;
        break;
      }
    }
    const std::size_t target = alone ? t.line + 1 : t.line;
    by_line[target].insert(rules.begin(), rules.end());
  }
  return by_line;
}

bool suppressed_at(
    const std::map<std::size_t, std::set<std::string>>& by_line,
    const Diagnostic& d) {
  const auto it = by_line.find(d.line);
  if (it == by_line.end()) return false;
  return it->second.contains(d.rule) || it->second.contains("all");
}

}  // namespace

bool LintEngine::has_rule(std::string_view name) const {
  return std::any_of(rules_.begin(), rules_.end(),
                     [&](const auto& r) { return r->name() == name; });
}

void LintEngine::add_source(std::string path, std::string content) {
  FileContext ctx;
  ctx.path = std::move(path);
  ctx.tokens = lex(content);
  ctx.content = std::move(content);
  files_.push_back(std::move(ctx));
}

LintReport LintEngine::run(const LintConfig& config) {
  LintReport report;

  // The lint *report* is deterministic; this wall-clock read only feeds the
  // throughput numbers (analysis_wall_ms / files_per_sec), never a finding.
  // hpcem-lint: allow(no-wall-clock)
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<FileContext*> active;
  for (FileContext& f : files_) {
    if (!config.excluded(f.path)) active.push_back(&f);
  }
  report.files_scanned = active.size();

  std::size_t workers = workers_;
  if (workers == 0) {
    workers = std::min<std::size_t>(
        8, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  }
  report.workers = workers;
  ThreadPool pool(workers);

  // Phase 1 (parallel): attach scope/declaration ASTs.  Each task touches
  // only its own file, so the barrier is the only synchronisation needed.
  for (FileContext* f : active) {
    if (f->ast != nullptr) continue;
    pool.submit([f] {
      f->ast = std::make_shared<const FileAst>(parse_ast(f->tokens));
    });
  }
  pool.wait_idle();

  // Phase 2 (parallel): per-file rules, one diagnostics vector per file so
  // the merge below is a deterministic file-order concatenation.
  std::vector<std::unique_ptr<Rule>> const& rules = rules_;
  std::vector<std::vector<Diagnostic>> per_file(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    pool.submit([&, i] {
      for (const auto& rule : rules) {
        if (config.rule_disabled(rule->name()) ||
            !config.rule_selected(rule->name())) {
          continue;
        }
        rule->check_file(*active[i], per_file[i]);
      }
    });
  }
  pool.wait_idle();

  std::vector<Diagnostic> raw;
  for (std::vector<Diagnostic>& v : per_file) {
    raw.insert(raw.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }

  // Phase 3 (serial): project-scope rules see the same filtered view.
  std::vector<FileContext> project_view;
  project_view.reserve(active.size());
  for (const FileContext* f : active) project_view.push_back(*f);
  for (const auto& rule : rules_) {
    if (config.rule_disabled(rule->name()) ||
        !config.rule_selected(rule->name())) {
      continue;
    }
    rule->check_project(project_view, raw);
  }

  std::map<std::string, std::map<std::size_t, std::set<std::string>>>
      suppression_map;
  for (const FileContext* f : active) {
    suppression_map[f->path] = suppressions(*f);
  }
  for (Diagnostic& d : raw) {
    const bool inline_ok =
        d.line > 0 && suppressed_at(suppression_map[d.path], d);
    const bool config_ok = config.allowed(d.rule, d.path);
    if (inline_ok || config_ok) {
      ++report.suppressed;
      continue;
    }
    report.diagnostics.push_back(std::move(d));
  }
  std::sort(report.diagnostics.begin(), report.diagnostics.end());

  // hpcem-lint: allow(no-wall-clock) — same throughput measurement as t0.
  const auto t1 = std::chrono::steady_clock::now();
  report.analysis_wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  report.files_per_sec =
      report.analysis_wall_ms > 0.0
          ? static_cast<double>(report.files_scanned) /
                (report.analysis_wall_ms / 1000.0)
          : 0.0;
  return report;
}

std::vector<std::string> collect_sources(
    const std::string& root, const std::vector<std::string>& dirs) {
  std::vector<std::string> paths;
  const fs::path base(root);
  for (const std::string& dir : dirs) {
    const fs::path target = base / dir;
    require(fs::exists(target), "hpcem_lint: path does not exist: ",
            target.string());
    if (fs::is_regular_file(target)) {
      paths.push_back(dir);
      continue;
    }
    auto it = fs::recursive_directory_iterator(target);
    for (const fs::directory_entry& entry : it) {
      const std::string name = entry.path().filename().string();
      if (entry.is_directory() &&
          (name.rfind("build", 0) == 0 || name.rfind('.', 0) == 0)) {
        it.disable_recursion_pending();
        continue;
      }
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      paths.push_back(
          fs::relative(entry.path(), base).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "hpcem_lint: cannot read ", path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string format_text(const LintReport& report) {
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics) {
    os << d.path;
    if (d.line > 0) os << ':' << d.line << ':' << d.column;
    os << ": [" << d.rule << "] " << d.message << '\n';
  }
  os << (report.clean() ? "clean" : "FAILED") << ": "
     << report.diagnostics.size() << " finding(s), " << report.suppressed
     << " suppressed, " << report.files_scanned << " file(s) scanned\n";
  return os.str();
}

std::string format_json(const LintReport& report) {
  JsonValue doc = JsonValue::object();
  doc.set("tool", "hpcem_lint");
  doc.set("version", 1);
  doc.set("files_scanned", report.files_scanned);
  doc.set("suppressed", report.suppressed);
  doc.set("analysis_wall_ms", report.analysis_wall_ms);
  doc.set("files_per_sec", report.files_per_sec);
  doc.set("workers", report.workers);
  JsonValue diags = JsonValue::array();
  for (const Diagnostic& d : report.diagnostics) {
    JsonValue entry = JsonValue::object();
    entry.set("rule", d.rule);
    entry.set("path", d.path);
    entry.set("line", d.line);
    entry.set("column", d.column);
    entry.set("message", d.message);
    diags.push_back(std::move(entry));
  }
  doc.set("diagnostics", std::move(diags));
  return doc.dump() + "\n";
}

std::string format_github(const LintReport& report) {
  // Workflow-command data must escape %, CR and LF so a multi-line message
  // cannot smuggle in a second command.
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '%') {
        out += "%25";
      } else if (c == '\r') {
        out += "%0D";
      } else if (c == '\n') {
        out += "%0A";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics) {
    os << "::error file=" << escape(d.path);
    if (d.line > 0) {
      os << ",line=" << d.line;
      if (d.column > 0) os << ",col=" << d.column;
    }
    os << ",title=hpcem_lint " << escape(d.rule) << "::" << escape(d.message)
       << '\n';
  }
  return os.str();
}

}  // namespace hpcem::lint
