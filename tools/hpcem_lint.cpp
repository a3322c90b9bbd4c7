// hpcem_lint — project-specific static analysis for the hpcem tree.
//
// Enforces the invariants the compiler cannot: determinism (no wall-clock
// or unseeded randomness in simulation code), ordered iteration on output
// paths, units-vocabulary hygiene at public API boundaries, and the error-
// handling conventions in DESIGN.md.  Exit codes are CI-oriented:
//   0  clean (no unsuppressed diagnostics)
//   1  findings reported
//   2  usage, configuration or I/O error
#include <filesystem>
#include <iostream>

#include "lint/engine.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

int run(int argc, const char* const* argv) {
  hpcem::ArgParser args(
      "hpcem_lint: static analysis enforcing hpcem's determinism and "
      "units-hygiene conventions.\n"
      "With no path arguments lints src/, tools/, bench/ and examples/ "
      "under --root.");
  args.add_option("root", ".", "repository root to resolve paths against");
  args.add_option("config", "",
                  "path to a .hpcemlint config (default: <root>/.hpcemlint "
                  "when present)");
  args.add_option("format", "text", "report format: text, json or github");
  args.add_option("rule", "",
                  "comma-separated rule names to run exclusively "
                  "(default: the full catalogue)");
  args.add_option("jobs", "0",
                  "worker threads for per-file analysis (0 = auto)");
  args.add_flag("list-rules", "print the rule catalogue and exit");
  args.allow_positionals("path",
                         "files or directories to lint, relative to --root");
  args.set_version(hpcem::tools::version_line("hpcem_lint"));
  if (!args.parse(argc, argv)) return hpcem::tools::parse_exit(args);

  hpcem::lint::LintEngine engine;
  if (args.get_flag("list-rules")) {
    for (const auto& rule : engine.rules()) {
      std::cout << rule->name() << "\n    " << rule->description() << '\n';
    }
    return 0;
  }

  const std::string format = args.get("format");
  if (format != "text" && format != "json" && format != "github") {
    std::cerr << "error: --format must be text, json or github, got: "
              << format << '\n';
    return 2;
  }

  const std::string root = args.get("root");
  hpcem::lint::LintConfig config;
  std::string config_path = args.get("config");
  if (config_path.empty()) {
    const std::filesystem::path implicit =
        std::filesystem::path(root) / ".hpcemlint";
    if (std::filesystem::exists(implicit)) config_path = implicit.string();
  }
  if (!config_path.empty()) {
    config = hpcem::lint::parse_config(hpcem::lint::read_file(config_path));
    for (const std::string& rule : config.disabled_rules) {
      hpcem::require(engine.has_rule(rule),
                     ".hpcemlint disables unknown rule '", rule, "'");
    }
    for (const auto& allow : config.allows) {
      hpcem::require(engine.has_rule(allow.rule),
                     ".hpcemlint allows unknown rule '", allow.rule, "'");
    }
  }

  const std::string rule_list = args.get("rule");
  if (!rule_list.empty()) {
    std::string current;
    for (std::size_t i = 0; i <= rule_list.size(); ++i) {
      if (i == rule_list.size() || rule_list[i] == ',') {
        if (!current.empty()) config.only_rules.push_back(current);
        current.clear();
      } else if (rule_list[i] != ' ') {
        current += rule_list[i];
      }
    }
    for (const std::string& rule : config.only_rules) {
      hpcem::require(engine.has_rule(rule), "--rule selects unknown rule '",
                     rule, "'");
    }
  }
  const long jobs = args.get_int("jobs");
  hpcem::require(jobs >= 0, "--jobs must be >= 0");
  engine.set_workers(static_cast<std::size_t>(jobs));

  std::vector<std::string> targets = args.positionals();
  if (targets.empty()) targets = {"src", "tools", "bench", "examples"};
  const std::vector<std::string> sources =
      hpcem::lint::collect_sources(root, targets);
  for (const std::string& path : sources) {
    engine.add_source(
        path, hpcem::lint::read_file(
                  (std::filesystem::path(root) / path).string()));
  }

  const hpcem::lint::LintReport report = engine.run(config);
  if (format == "json") {
    std::cout << hpcem::lint::format_json(report);
  } else if (format == "github") {
    std::cout << hpcem::lint::format_github(report);
  } else {
    std::cout << hpcem::lint::format_text(report);
  }
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hpcem_lint: " << e.what() << '\n';
    return 2;
  }
}
