// Minimal command-line argument parsing for the tools/ binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag` options with
// declared defaults, plus automatic `--help` text.  Deliberately tiny: the
// tools need a dozen options, not a framework.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hpcem {

/// Declarative CLI option set.
class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Declare a string option with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declare a boolean flag (defaults to false; present = true).
  void add_flag(const std::string& name, const std::string& help);
  /// Accept free (non `--`) arguments; `label` names them in usage text.
  /// Without this call a positional argument is a parse error.
  void allow_positionals(const std::string& label, const std::string& help);

  /// Enable `--version`: when parse() sees it, parsing stops, parse()
  /// returns false and version_requested() is true; the caller prints
  /// `version_text` and exits 0.
  void set_version(std::string version_text);

  /// Parse argv.  Returns false (after printing usage) on --help or on an
  /// unknown/malformed option.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// True when the last parse() stopped on --version.
  [[nodiscard]] bool version_requested() const { return version_requested_; }
  /// The text set_version() installed (empty when not enabled).
  [[nodiscard]] const std::string& version_text() const {
    return version_text_;
  }

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// Throws InvalidArgument unless the value is a whole decimal integer
  /// that fits a long.
  [[nodiscard]] long get_int(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Free arguments, in command-line order (empty unless allow_positionals
  /// was declared and arguments were given).
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  [[nodiscard]] std::string usage() const;
  /// Error description when parse returned false (empty for --help).
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  std::string positional_label_;
  std::string positional_help_;
  std::string version_text_;
  bool version_requested_ = false;
  std::string error_;
};

}  // namespace hpcem
