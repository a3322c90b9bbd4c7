// Rule interface for the hpcem_lint engine.
//
// A rule sees one fully-lexed file at a time through `FileContext` and
// appends diagnostics; project-scope rules (include cycles) additionally get
// a pass over every file at once.  Rules never filter themselves: the engine
// owns suppression comments, config disables and per-path allowlists, so a
// rule's job is only to report everything it believes is a finding.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/ast.hpp"
#include "lint/diagnostic.hpp"
#include "lint/lexer.hpp"

namespace hpcem::lint {

/// One lexed source file plus the path-derived facts rules key off.
struct FileContext {
  std::string path;           ///< repo-relative, '/'-separated
  std::string content;        ///< raw text (rules rarely need it)
  std::vector<Token> tokens;  ///< from lex(content)
  /// Scope/declaration structure, attached by the engine before any rule
  /// runs (shared so copies of the context stay cheap).
  std::shared_ptr<const FileAst> ast;

  [[nodiscard]] bool is_header() const {
    return ends_with(".hpp") || ends_with(".h");
  }
  /// Public headers live under src/ — the API surface other layers include.
  [[nodiscard]] bool is_public_header() const {
    return is_header() && path.rfind("src/", 0) == 0;
  }
  [[nodiscard]] bool in_dir(std::string_view prefix) const {
    return path.rfind(prefix, 0) == 0;
  }

 private:
  [[nodiscard]] bool ends_with(std::string_view suffix) const {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  }
};

class Rule {
 public:
  virtual ~Rule() = default;
  /// Stable kebab-case name used in reports, config and suppressions.
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// One-line human description for --list-rules and docs.
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// Per-file pass.
  virtual void check_file(const FileContext& file,
                          std::vector<Diagnostic>& out) const {
    (void)file;
    (void)out;
  }
  /// Whole-project pass (runs once, after every file was lexed).
  virtual void check_project(const std::vector<FileContext>& files,
                             std::vector<Diagnostic>& out) const {
    (void)files;
    (void)out;
  }
};

/// The built-in rule set, in catalogue order.
[[nodiscard]] std::vector<std::unique_ptr<Rule>> default_rules();

/// The semantic rule family (units-flow, determinism-flow)
/// from rules_semantic.cpp; default_rules() appends these.
[[nodiscard]] std::vector<std::unique_ptr<Rule>> semantic_rules();

}  // namespace hpcem::lint
