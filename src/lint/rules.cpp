// Built-in rule catalogue for hpcem_lint.
//
// Every rule here enforces an invariant the compiler cannot: determinism of
// simulation output, dimension hygiene at API boundaries, and the error-
// handling conventions the reproduction's bit-identical guarantees rest on.
// Rules work on the token stream from lint/lexer.hpp, so comments, strings
// and preprocessor text never produce false positives.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>

#include "lint/rule.hpp"

namespace hpcem::lint {
namespace {

using Tokens = std::vector<Token>;

/// Read the qualified name whose last segment starts at `i`, walking
/// *backwards* over `ident :: ident :: ...`.  Returns e.g.
/// "std::chrono::system_clock" for the token index of "system_clock".
std::string qualified_prefix(const Tokens& toks, std::size_t i) {
  std::string name = toks[i].text;
  while (i >= 2 && toks[i - 1].is_punct("::") &&
         toks[i - 2].kind == TokenKind::kIdentifier) {
    name = toks[i - 2].text + "::" + name;
    i -= 2;
  }
  return name;
}

/// True when the identifier at `i` is qualified by `::` on its left (so a
/// user-defined `rand()` member is not the C library's).
bool has_left_qualifier(const Tokens& toks, std::size_t i) {
  return i >= 1 && toks[i - 1].is_punct("::");
}

/// Index of the next token after `i` skipping comments; toks.size() at end.
std::size_t next_code(const Tokens& toks, std::size_t i) {
  ++i;
  while (i < toks.size() && toks[i].kind == TokenKind::kComment) ++i;
  return i;
}

/// Index of the previous non-comment token before `i`; npos-like
/// toks.size() when none exists.
std::size_t prev_code(const Tokens& toks, std::size_t i) {
  while (i > 0) {
    --i;
    if (toks[i].kind != TokenKind::kComment) return i;
  }
  return toks.size();
}

void emit(std::vector<Diagnostic>& out, std::string_view rule,
          const FileContext& file, const Token& tok, std::string message) {
  out.push_back(Diagnostic{std::string(rule), file.path, tok.line, tok.column,
                           std::move(message)});
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------------
// Simulation state must never depend on the host's clock: wall-clock reads
// make runs unreproducible and break the bit-identical campaign merges.
class NoWallClockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-wall-clock";
  }
  [[nodiscard]] std::string_view description() const override {
    return "ban wall-clock reads (system_clock/steady_clock::now, "
           "clock_gettime, __TIME__/__DATE__) that break reproducibility";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    static constexpr std::array kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    static constexpr std::array kFunctions = {"clock_gettime", "gettimeofday",
                                              "timespec_get"};
    static constexpr std::array kMacros = {"__TIME__", "__DATE__",
                                           "__TIMESTAMP__"};
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      for (const char* clock : kClocks) {
        if (t.text != clock) continue;
        // Only the ::now() read is banned; naming the type (e.g. in a
        // duration_cast alias) is harmless.
        const std::size_t j = next_code(toks, i);
        const std::size_t k = j < toks.size() ? next_code(toks, j) : j;
        if (j < toks.size() && toks[j].is_punct("::") && k < toks.size() &&
            toks[k].is_identifier("now")) {
          emit(out, name(), file, t,
               qualified_prefix(toks, i) +
                   "::now() reads the wall clock; simulation code must "
                   "derive time from SimTime/the engine only");
        }
      }
      for (const char* fn : kFunctions) {
        if (t.text == fn) {
          const std::size_t j = next_code(toks, i);
          if (j < toks.size() && toks[j].is_punct("(")) {
            emit(out, name(), file, t,
                 t.text + "() reads the wall clock; simulation code must "
                          "derive time from SimTime/the engine only");
          }
        }
      }
      for (const char* macro : kMacros) {
        if (t.text == macro) {
          emit(out, name(), file, t,
               t.text + " bakes build time into the binary, breaking "
                        "byte-identical reproduction outputs");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: no-unseeded-random
// ---------------------------------------------------------------------------
// All stochastic draws must flow through an explicitly-seeded hpcem::Rng.
class NoUnseededRandomRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-unseeded-random";
  }
  [[nodiscard]] std::string_view description() const override {
    return "ban std::rand/random_device and default-constructed <random> "
           "engines; randomness must come from an explicitly-seeded "
           "hpcem::Rng";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    static constexpr std::array kEngines = {
        "mt19937",      "mt19937_64",   "minstd_rand",
        "minstd_rand0", "ranlux24",     "ranlux48",
        "knuth_b",      "default_random_engine"};
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "rand" || t.text == "srand") {
        // Match the C library function only: `rand(`/`std::rand(`, not a
        // member or a differently-qualified name.
        const std::size_t j = next_code(toks, i);
        const bool call = j < toks.size() && toks[j].is_punct("(");
        const std::size_t p = prev_code(toks, i);
        const bool member =
            p < toks.size() && (toks[p].is_punct(".") || toks[p].is_punct(
                                                             "->"));
        const bool qualified = has_left_qualifier(toks, i);
        const bool std_qualified =
            qualified && qualified_prefix(toks, i) == "std::" + t.text;
        if (call && !member && (!qualified || std_qualified)) {
          emit(out, name(), file, t,
               t.text + "() is unseeded global state; draw from an "
                        "explicitly-seeded hpcem::Rng instead");
        }
        continue;
      }
      if (t.text == "random_device") {
        emit(out, name(), file, t,
             "std::random_device is non-deterministic; seeds must be "
             "explicit so runs are reproducible");
        continue;
      }
      for (const char* engine : kEngines) {
        if (t.text != engine) continue;
        // Default construction (`std::mt19937 g;` / `g{}` / `g()`) hides
        // the seed.  Construction with arguments is explicitly seeded and
        // passes.
        const std::size_t j = next_code(toks, i);
        if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
          continue;  // type mention (template arg, using-alias): fine
        }
        const std::size_t k = next_code(toks, j);
        if (k >= toks.size()) continue;
        const bool plain_decl = toks[k].is_punct(";");
        const std::size_t l = next_code(toks, k);
        const bool empty_ctor =
            l < toks.size() &&
            ((toks[k].is_punct("{") && toks[l].is_punct("}")) ||
             (toks[k].is_punct("(") && toks[l].is_punct(")")));
        if (plain_decl || empty_ctor) {
          emit(out, name(), file, toks[j],
               "std::" + t.text + " " + toks[j].text +
                   " is default-constructed (implementation-defined seed); "
                   "seed it explicitly or use hpcem::Rng");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: ordered-output
// ---------------------------------------------------------------------------
// Iterating an unordered container on a path that writes artifacts makes
// the output depend on hash-table layout — byte-identical figures forbid it.
class OrderedOutputRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "ordered-output";
  }
  [[nodiscard]] std::string_view description() const override {
    return "flag range-for over unordered containers in files that write "
           "CSV/JSON/artifacts (hash order leaks into output)";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    if (!writes_output(file)) return;
    const Tokens& toks = file.tokens;
    const std::set<std::string> unordered_names = unordered_decls(toks);
    if (unordered_names.empty()) return;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks[i].is_identifier("for")) continue;
      std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !toks[j].is_punct("(")) continue;
      // Find the range-for ':' at parenthesis depth 1, then the matching
      // close paren; every identifier in between is the range expression.
      int depth = 1;
      std::size_t colon = 0;
      for (std::size_t k = j + 1; k < toks.size() && depth > 0; ++k) {
        if (toks[k].is_punct("(")) ++depth;
        if (toks[k].is_punct(")")) --depth;
        if (depth == 1 && toks[k].is_punct(":")) {
          colon = k;
          break;
        }
        if (toks[k].is_punct(";")) break;  // classic for loop
      }
      if (colon == 0) continue;
      depth = 1;
      for (std::size_t k = colon + 1; k < toks.size() && depth > 0; ++k) {
        if (toks[k].is_punct("(")) ++depth;
        if (toks[k].is_punct(")")) {
          --depth;
          continue;
        }
        if (toks[k].kind == TokenKind::kIdentifier &&
            unordered_names.contains(toks[k].text)) {
          emit(out, name(), file, toks[k],
               "range-for over unordered container '" + toks[k].text +
                   "' in an artifact-writing file; iterate a sorted copy "
                   "or an ordered container so output is deterministic");
          break;
        }
      }
    }
  }

 private:
  /// Heuristic: the file writes artifacts when it touches the CSV/JSON/
  /// artifact layers or opens file streams.
  static bool writes_output(const FileContext& file) {
    for (const Token& t : file.tokens) {
      if (t.kind == TokenKind::kPreprocessor) {
        if (t.text.find("util/csv.hpp") != std::string::npos ||
            t.text.find("util/json.hpp") != std::string::npos ||
            t.text.find("core/run_artifact.hpp") != std::string::npos ||
            t.text.find("<fstream>") != std::string::npos) {
          return true;
        }
      }
      if (t.kind == TokenKind::kIdentifier && t.text == "ofstream") {
        return true;
      }
    }
    return false;
  }

  /// Names declared with an unordered container type in this file (local
  /// variables, members, parameters — anything `unordered_xxx<...> name`).
  static std::set<std::string> unordered_decls(const Tokens& toks) {
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string& id = toks[i].text;
      if (id != "unordered_map" && id != "unordered_set" &&
          id != "unordered_multimap" && id != "unordered_multiset") {
        continue;
      }
      std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !toks[j].is_punct("<")) continue;
      int depth = 1;
      while (depth > 0) {
        j = next_code(toks, j);
        if (j >= toks.size()) break;
        if (toks[j].is_punct("<")) ++depth;
        if (toks[j].is_punct(">")) --depth;
      }
      if (depth != 0) continue;
      j = next_code(toks, j);
      // Skip reference/pointer declarators: `const unordered_map<..>& m`.
      while (j < toks.size() &&
             (toks[j].is_punct("&") || toks[j].is_punct("*"))) {
        j = next_code(toks, j);
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        names.insert(toks[j].text);
      }
    }
    return names;
  }
};

// ---------------------------------------------------------------------------
// Rule: units-vocabulary
// ---------------------------------------------------------------------------
// A public signature taking `double power_kw` instead of hpcem::Power throws
// away the dimension check that units.hpp exists to provide.
class UnitsVocabularyRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "units-vocabulary";
  }
  [[nodiscard]] std::string_view description() const override {
    return "flag public-header parameters of raw double whose names carry a "
           "unit suffix (_w/_kwh/_ghz/_gco2/_gbp...); use the units.hpp "
           "vocabulary type";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    if (!file.is_public_header()) return;
    const Tokens& toks = file.tokens;
    int paren_depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.is_punct("(")) ++paren_depth;
      if (t.is_punct(")")) --paren_depth;
      if (paren_depth <= 0) continue;  // members/locals are not API surface
      if (!t.is_identifier("double") && !t.is_identifier("float")) continue;
      const std::size_t j = next_code(toks, i);
      if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
        continue;
      }
      const std::size_t k = next_code(toks, j);
      const bool param_like =
          k < toks.size() && (toks[k].is_punct(",") || toks[k].is_punct(")") ||
                              toks[k].is_punct("="));
      if (!param_like) continue;
      if (const char* type = dimension_type(toks[j].text)) {
        emit(out, name(), file, toks[j],
             "parameter '" + toks[j].text + "' is a raw " + t.text +
                 " carrying a unit suffix; take hpcem::" + type +
                 " (util/units.hpp) so the dimension is type-checked");
      }
    }
  }

 private:
  /// Maps a unit-suffixed parameter name to the vocabulary type it should
  /// use; nullptr when the name carries no dimension.
  static const char* dimension_type(const std::string& id) {
    if (id.find("gco2") != std::string::npos) {
      // _gco2 / _gco2e → mass; _gco2_per_kwh / _gco2kwh → intensity.
      // Checked before the suffix table so *_gco2_per_kwh is not taken
      // for a plain energy-in-kWh parameter.
      return id.find("kwh") != std::string::npos ? "CarbonIntensity"
                                                 : "CarbonMass";
    }
    static const std::map<std::string, const char*> kSuffixes = {
        {"_w", "Power"},          {"_kw", "Power"},
        {"_mw", "Power"},         {"_watts", "Power"},
        {"_kilowatts", "Power"},  {"_megawatts", "Power"},
        {"_j", "Energy"},         {"_joules", "Energy"},
        {"_kwh", "Energy"},       {"_mwh", "Energy"},
        {"_hz", "Frequency"},     {"_mhz", "Frequency"},
        {"_ghz", "Frequency"},    {"_gbp", "Cost"},
        {"_pounds", "Cost"},      {"_g_per_kwh", "CarbonIntensity"},
        {"_gbp_per_kwh", "Price"}};
    for (const auto& [suffix, type] : kSuffixes) {
      if (id.size() > suffix.size() &&
          id.compare(id.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return type;
      }
    }
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// Rule: no-naked-new
// ---------------------------------------------------------------------------
class NoNakedNewRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-naked-new";
  }
  [[nodiscard]] std::string_view description() const override {
    return "ban naked new/delete; ownership goes through "
           "unique_ptr/make_unique or containers";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text != "new" && t.text != "delete") continue;
      const std::size_t p = prev_code(toks, i);
      if (p < toks.size()) {
        // `operator new` / `operator delete` overloads and `= delete` /
        // `= default`-adjacent declarations are not ownership bugs.
        if (toks[p].is_identifier("operator")) continue;
        if (t.text == "delete" && toks[p].is_punct("=")) continue;
      }
      emit(out, name(), file, t,
           "naked '" + t.text +
               "'; manage ownership with std::unique_ptr/std::make_unique "
               "or a container");
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: no-swallowed-catch
// ---------------------------------------------------------------------------
class NoSwallowedCatchRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-swallowed-catch";
  }
  [[nodiscard]] std::string_view description() const override {
    return "flag catch (...) blocks that neither rethrow nor capture the "
           "exception (silently swallowing failures corrupts results)";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].is_identifier("catch")) continue;
      std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !toks[j].is_punct("(")) continue;
      // catch (...) — the lexer fuses the ellipsis into one '...' token.
      std::size_t k = next_code(toks, j);
      if (k >= toks.size() || !toks[k].is_punct("...")) continue;
      k = next_code(toks, k);
      if (k >= toks.size() || !toks[k].is_punct(")")) continue;
      std::size_t body = next_code(toks, k);
      if (body >= toks.size() || !toks[body].is_punct("{")) continue;
      // Scan the brace-matched body for evidence the exception is handled.
      static constexpr std::array kHandles = {
          "throw",     "rethrow_exception", "current_exception",
          "exception", "abort",             "terminate",
          "exit"};
      int depth = 1;
      bool handled = false;
      std::size_t b = body;
      while (depth > 0) {
        b = next_code(toks, b);
        if (b >= toks.size()) break;
        if (toks[b].is_punct("{")) ++depth;
        if (toks[b].is_punct("}")) --depth;
        if (toks[b].kind == TokenKind::kIdentifier) {
          for (const char* h : kHandles) {
            if (toks[b].text == h) handled = true;
          }
        }
      }
      if (!handled) {
        emit(out, name(), file, toks[i],
             "catch (...) swallows the exception; rethrow, capture "
             "std::current_exception(), or fail loudly");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: nodiscard-accessor
// ---------------------------------------------------------------------------
// In public headers a nullary const accessor whose body is `{ return …; }`
// has no effect other than its value; dropping that value is always a bug.
class NodiscardAccessorRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "nodiscard-accessor";
  }
  [[nodiscard]] std::string_view description() const override {
    return "require [[nodiscard]] on nullary const `{ return ...; }` "
           "accessors in public (src/) headers";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    if (!file.is_public_header()) return;
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
      // Match: `( ) const [noexcept] { return`
      if (!toks[i].is_punct("(")) continue;
      std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !toks[j].is_punct(")")) continue;
      j = next_code(toks, j);
      if (j >= toks.size() || !toks[j].is_identifier("const")) continue;
      j = next_code(toks, j);
      if (j < toks.size() && toks[j].is_identifier("noexcept")) {
        j = next_code(toks, j);
      }
      if (j >= toks.size() || !toks[j].is_punct("{")) continue;
      const std::size_t ret = next_code(toks, j);
      if (ret >= toks.size() || !toks[ret].is_identifier("return")) continue;

      // Walk back over the declarator: name, then return type, stopping at
      // a declaration boundary.  Reject operators and void returns; accept
      // when [[nodiscard]] appears anywhere in the stretch.
      const std::size_t name_idx = prev_code(toks, i);
      if (name_idx >= toks.size() ||
          toks[name_idx].kind != TokenKind::kIdentifier) {
        continue;  // conversion operators, lambdas — out of scope
      }
      bool has_nodiscard = false;
      bool is_void = false;
      bool is_operator = false;
      std::size_t b = name_idx;
      while (b > 0) {
        b = prev_code(toks, b);
        if (b >= toks.size()) break;
        const Token& bt = toks[b];
        if (bt.is_punct(";") || bt.is_punct("{") || bt.is_punct("}") ||
            bt.is_punct(":") || bt.is_punct(",") || bt.is_punct(")")) {
          break;
        }
        if (bt.is_identifier("nodiscard")) has_nodiscard = true;
        if (bt.is_identifier("void")) is_void = true;
        if (bt.is_identifier("operator")) is_operator = true;
      }
      if (!has_nodiscard && !is_void && !is_operator) {
        emit(out, name(), file, toks[name_idx],
             "accessor '" + toks[name_idx].text +
                 "()' returns a value and has no side effects; mark it "
                 "[[nodiscard]]");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: header-pragma-once
// ---------------------------------------------------------------------------
class HeaderPragmaOnceRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "header-pragma-once";
  }
  [[nodiscard]] std::string_view description() const override {
    return "every header starts with #pragma once (before any code)";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    if (!file.is_header()) return;
    for (const Token& t : file.tokens) {
      if (t.kind == TokenKind::kComment) continue;
      if (t.kind == TokenKind::kPreprocessor &&
          collapse(t.text).rfind("#pragma once", 0) == 0) {
        return;
      }
      emit(out, name(), file, t,
           "header does not start with #pragma once (found " +
               (t.kind == TokenKind::kPreprocessor ? "'" + t.text + "'"
                                                   : "code") +
               " first)");
      return;
    }
    Token eof;
    emit(out, name(), file, eof, "header has no #pragma once");
  }

 private:
  /// Normalise runs of whitespace so `#  pragma   once` still matches.
  static std::string collapse(const std::string& s) {
    std::string out;
    bool in_space = false;
    for (char ch : s) {
      if (ch == ' ' || ch == '\t') {
        in_space = true;
        continue;
      }
      if (in_space && !out.empty()) out += ' ';
      in_space = false;
      out += ch;
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Rule: no-include-cycle
// ---------------------------------------------------------------------------
class NoIncludeCycleRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-include-cycle";
  }
  [[nodiscard]] std::string_view description() const override {
    return "the project include graph (quoted includes under src/) must be "
           "acyclic";
  }
  void check_project(const std::vector<FileContext>& files,
                     std::vector<Diagnostic>& out) const override {
    // Quoted includes resolve against src/ (the include root every target
    // uses); build edges only between files we actually lexed.
    std::map<std::string, std::vector<std::string>> graph;
    std::set<std::string> known;
    for (const FileContext& f : files) known.insert(f.path);
    for (const FileContext& f : files) {
      for (const Token& t : f.tokens) {
        if (t.kind != TokenKind::kPreprocessor) continue;
        const std::string target = quoted_include(t.text);
        if (target.empty()) continue;
        const std::string resolved = "src/" + target;
        if (known.contains(resolved)) graph[f.path].push_back(resolved);
      }
    }
    // Iterative DFS with colouring; report each cycle once, anchored at its
    // lexicographically-smallest member so output is deterministic.
    std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    for (const FileContext& f : files) {
      dfs(f.path, graph, colour, stack, reported, out);
    }
  }

 private:
  static std::string quoted_include(const std::string& directive) {
    if (directive.find("include") == std::string::npos) return {};
    const std::size_t open = directive.find('"');
    if (open == std::string::npos) return {};
    const std::size_t close = directive.find('"', open + 1);
    if (close == std::string::npos) return {};
    return directive.substr(open + 1, close - open - 1);
  }

  void dfs(const std::string& node,
           const std::map<std::string, std::vector<std::string>>& graph,
           std::map<std::string, int>& colour,
           std::vector<std::string>& stack, std::set<std::string>& reported,
           std::vector<Diagnostic>& out) const {
    if (colour[node] != 0) return;
    colour[node] = 1;
    stack.push_back(node);
    const auto it = graph.find(node);
    if (it != graph.end()) {
      for (const std::string& next : it->second) {
        if (colour[next] == 1) {
          report_cycle(next, stack, reported, out);
        } else if (colour[next] == 0) {
          dfs(next, graph, colour, stack, reported, out);
        }
      }
    }
    stack.pop_back();
    colour[node] = 2;
  }

  void report_cycle(const std::string& entry,
                    const std::vector<std::string>& stack,
                    std::set<std::string>& reported,
                    std::vector<Diagnostic>& out) const {
    const auto begin =
        std::find(stack.begin(), stack.end(), entry);
    std::vector<std::string> cycle(begin, stack.end());
    const std::string anchor = *std::min_element(cycle.begin(), cycle.end());
    std::ostringstream path;
    // Rotate so the anchor leads: a cycle found from two start points still
    // serialises (and dedupes) identically.
    const auto a = std::find(cycle.begin(), cycle.end(), anchor);
    for (auto p = a; p != cycle.end(); ++p) path << *p << " -> ";
    for (auto p = cycle.begin(); p != a; ++p) path << *p << " -> ";
    path << anchor;
    if (!reported.insert(path.str()).second) return;
    out.push_back(Diagnostic{std::string(name()), anchor, 0, 0,
                             "include cycle: " + path.str()});
  }
};

// ---------------------------------------------------------------------------
// Rule: scenario-in-data
// ---------------------------------------------------------------------------
// Scenarios are data, not code: every harness under bench/ and tools/ must
// take its `ScenarioSpec` from the committed library (scenarios/*.json via
// load_named_scenario / load_scenario_file / parse_scenario /
// scenario_from_json, or the core figure factories that wrap them).  A
// hard-coded literal assembly in a harness silently forks the scenario's
// source of truth away from the schema-checked files.
class ScenarioInDataRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "scenario-in-data";
  }
  [[nodiscard]] std::string_view description() const override {
    return "bench/ and tools/ must load ScenarioSpec from the committed "
           "scenario library, not assemble literals in C++";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    if (!file.in_dir("bench/") && !file.in_dir("tools/")) return;
    static constexpr std::array kLoaders = {
        "load_named_scenario", "load_scenario_file", "parse_scenario",
        "scenario_from_json",  "figure1",            "figure2",
        "figure3",             "archer2_baseline"};
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].is_identifier("ScenarioSpec")) continue;
      // Only declarations: `ScenarioSpec name ...`.  Qualified uses
      // (ScenarioSpec::...), template arguments (<ScenarioSpec>) and
      // reference/pointer parameters (ScenarioSpec& spec) are fine — they
      // consume a spec, they do not assemble one.
      const std::size_t j = next_code(toks, i);
      if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
        continue;
      }
      // Scan the initializer up to the terminating ';' for a sanctioned
      // loader call; `ScenarioSpec spec;` (default-construct, then
      // member-by-member literal assembly) has none by construction.
      bool sanctioned = false;
      int depth = 0;
      for (std::size_t k = next_code(toks, j); k < toks.size();
           k = next_code(toks, k)) {
        const Token& t = toks[k];
        if (depth == 0 && (t.is_punct(";") || t.is_punct(","))) break;
        if (t.is_punct("(") || t.is_punct("{") || t.is_punct("[")) ++depth;
        if (t.is_punct(")") || t.is_punct("}") || t.is_punct("]")) --depth;
        if (t.kind == TokenKind::kIdentifier &&
            std::find(kLoaders.begin(), kLoaders.end(), t.text) !=
                kLoaders.end()) {
          sanctioned = true;
          break;
        }
      }
      if (!sanctioned) {
        emit(out, name(), file, toks[i],
             "ScenarioSpec '" + toks[j].text +
                 "' is assembled in C++; scenarios are data — load it "
                 "from the committed library (load_named_scenario, "
                 "--spec; see docs/SCENARIO_SCHEMA.md)");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: binary-io-hygiene
// ---------------------------------------------------------------------------
// Byte reinterpretation is confined to src/colstore's bounds-checked codec
// (colstore/bytes.hpp): a raw memcpy out of a file buffer or a
// reinterpret_cast over its bytes anywhere else bypasses the one place
// where truncation and corruption are checked, and is exactly how a
// malformed shard becomes an out-of-range read instead of a ParseError.
class BinaryIoHygieneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "binary-io-hygiene";
  }
  [[nodiscard]] std::string_view description() const override {
    return "ban raw memcpy/memmove byte copies and reinterpret_cast "
           "punning outside src/colstore's bounds-checked codec "
           "(colstore/bytes.hpp); decode bytes through ByteReader";
  }
  void check_file(const FileContext& file,
                  std::vector<Diagnostic>& out) const override {
    // The codec itself is the sanctioned home of these constructs.
    if (file.in_dir("src/colstore/")) return;
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "memcpy" || t.text == "memmove") {
        const std::size_t j = next_code(toks, i);
        if (j < toks.size() && toks[j].is_punct("(")) {
          emit(out, name(), file, t,
               "raw " + t.text +
                   "() byte copy; binary decoding belongs in "
                   "src/colstore's bounds-checked ByteReader/ByteWriter "
                   "(colstore/bytes.hpp)");
        }
      } else if (t.text == "reinterpret_cast") {
        emit(out, name(), file, t,
             "reinterpret_cast punning; use std::bit_cast for value "
             "reinterpretation or src/colstore's checked codec for byte "
             "buffers (colstore/bytes.hpp)");
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NoWallClockRule>());
  rules.push_back(std::make_unique<NoUnseededRandomRule>());
  rules.push_back(std::make_unique<OrderedOutputRule>());
  rules.push_back(std::make_unique<UnitsVocabularyRule>());
  rules.push_back(std::make_unique<NoNakedNewRule>());
  rules.push_back(std::make_unique<NoSwallowedCatchRule>());
  rules.push_back(std::make_unique<NodiscardAccessorRule>());
  rules.push_back(std::make_unique<HeaderPragmaOnceRule>());
  rules.push_back(std::make_unique<NoIncludeCycleRule>());
  rules.push_back(std::make_unique<ScenarioInDataRule>());
  rules.push_back(std::make_unique<BinaryIoHygieneRule>());
  for (auto& rule : semantic_rules()) rules.push_back(std::move(rule));
  return rules;
}

}  // namespace hpcem::lint
