// Lint engine: file collection, rule execution, suppression and config
// filtering, and report formatting.
//
// Suppression syntax (inside any comment):
//   // hpcem-lint: allow(rule-a, rule-b)   — silence those rules
//   // hpcem-lint: allow(all)              — silence every rule
// A suppression applies to the line the comment sits on; when the comment
// is the only thing on its line it applies to the next line instead (the
// annotate-above style).  File-level findings (line 0) are only silenced by
// `.hpcemlint` allow/exclude entries, never by inline comments.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/config.hpp"
#include "lint/rule.hpp"

namespace hpcem::lint {

/// Outcome of a lint run over a set of files.
struct LintReport {
  std::vector<Diagnostic> diagnostics;  ///< sorted, post-filter
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;  ///< findings silenced by comments/config

  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
};

class LintEngine {
 public:
  /// Engine over the default rule catalogue.
  LintEngine() : LintEngine(default_rules()) {}
  explicit LintEngine(std::vector<std::unique_ptr<Rule>> rules)
      : rules_(std::move(rules)) {}

  [[nodiscard]] const std::vector<std::unique_ptr<Rule>>& rules() const {
    return rules_;
  }
  /// True when `name` names a rule in this engine (config validation).
  [[nodiscard]] bool has_rule(std::string_view name) const;

  /// Queue an in-memory source (tests, stdin).  `path` is the repo-relative
  /// name rules and reports will see.
  void add_source(std::string path, std::string content);

  /// Run every rule over the queued sources and filter through `config`:
  /// one serial pass per file, then the project-scope rules; the report's
  /// diagnostics are sorted by path, line, column and rule.
  [[nodiscard]] LintReport run(const LintConfig& config) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
  std::vector<FileContext> files_;
};

/// Recursively collect lintable sources (*.cpp, *.hpp, *.h) under each of
/// `dirs` (repo-relative, resolved against `root`), skipping any directory
/// whose name starts with "build" or ".".  Returns sorted repo-relative
/// paths; throws hpcem::InvalidArgument for a path that does not exist.
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::string& root, const std::vector<std::string>& dirs);

/// Read a file into a string; throws hpcem::InvalidArgument on I/O failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Human-readable report: one `path:line:col: [rule] message` per line plus
/// a trailing summary.
[[nodiscard]] std::string format_text(const LintReport& report);

/// Machine-readable report for CI artifacts: schema
/// {"tool","version","files_scanned","suppressed","diagnostics":[...]}.
[[nodiscard]] std::string format_json(const LintReport& report);

/// GitHub workflow-command annotations (`::error file=...,line=...::msg`),
/// one per diagnostic, so findings render inline on pull requests.  Emits
/// nothing for a clean report.
[[nodiscard]] std::string format_github(const LintReport& report);

}  // namespace hpcem::lint
