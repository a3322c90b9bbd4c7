#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace hpcem {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  require(!options_.contains(name), "ArgParser: duplicate option ", name);
  options_[name] = Option{default_value, help, false};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  require(!options_.contains(name), "ArgParser: duplicate option ", name);
  options_[name] = Option{"false", help, true};
  order_.push_back(name);
}

void ArgParser::allow_positionals(const std::string& label,
                                  const std::string& help) {
  positional_label_ = label;
  positional_help_ = help;
}

void ArgParser::set_version(std::string version_text) {
  version_text_ = std::move(version_text);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  values_.clear();
  positionals_.clear();
  error_.clear();
  version_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--version" && !version_text_.empty()) {
      version_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (positional_label_.empty()) {
        error_ = "unexpected positional argument: " + arg;
        return false;
      }
      positionals_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      error_ = "unknown option: --" + arg;
      return false;
    }
    if (it->second.is_flag) {
      if (has_value) {
        error_ = "flag --" + arg + " takes no value";
        return false;
      }
      values_[arg] = "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error_ = "option --" + arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto vit = values_.find(name);
  if (vit != values_.end()) return vit->second;
  const auto oit = options_.find(name);
  require(oit != options_.end(), "ArgParser::get: undeclared option ", name);
  return oit->second.default_value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& s = get(name);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  require(end != s.c_str() && *end == '\0', "ArgParser: --", name,
          " expects a number, got: ", s);
  return v;
}

long ArgParser::get_int(const std::string& name) const {
  const std::string& s = get(name);
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  require(end != s.c_str() && *end == '\0', "ArgParser: --", name,
          " expects an integer, got: ", s);
  return v;
}

bool ArgParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\n";
  if (!positional_label_.empty()) {
    os << "Arguments:\n  [" << positional_label_ << "...]\n      "
       << positional_help_ << '\n' << '\n';
  }
  os << "Options:\n";
  for (const auto& name : order_) {
    const Option& o = options_.at(name);
    os << "  --" << name;
    if (!o.is_flag) os << " <value>";
    os << "\n      " << o.help;
    if (!o.is_flag && !o.default_value.empty()) {
      os << " (default: " << o.default_value << ')';
    }
    os << '\n';
  }
  os << "  --help\n      show this message\n";
  if (!version_text_.empty()) {
    os << "  --version\n      print version information\n";
  }
  return os.str();
}

}  // namespace hpcem
