#include "lint/symbols.hpp"

#include <algorithm>
#include <array>
#include <deque>

namespace hpcem::lint {
namespace {

using Tokens = std::vector<Token>;

std::size_t next_code(const Tokens& toks, std::size_t i) {
  ++i;
  while (i < toks.size() && (toks[i].kind == TokenKind::kComment ||
                             toks[i].kind == TokenKind::kPreprocessor)) {
    ++i;
  }
  return i;
}

std::size_t prev_code(const Tokens& toks, std::size_t i) {
  while (i > 0) {
    --i;
    if (toks[i].kind != TokenKind::kComment &&
        toks[i].kind != TokenKind::kPreprocessor) {
      return i;
    }
  }
  return toks.size();
}

bool is_call_keyword(std::string_view id) {
  static constexpr std::array<std::string_view, 18> kKeywords = {
      "if",     "for",      "while",    "switch",        "catch",
      "return", "sizeof",   "alignof",  "decltype",      "noexcept",
      "assert", "defined",  "new",      "delete",        "throw",
      "case",   "operator", "static_assert"};
  return std::find(kKeywords.begin(), kKeywords.end(), id) != kKeywords.end();
}

/// Scan a function's tokens (signature through body) for determinism facts
/// and the sanctioned-source annotation.
void scan_function_facts(const Tokens& toks, std::size_t begin,
                         std::size_t end, SymbolFunction& f) {
  static constexpr std::array<std::string_view, 3> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static constexpr std::array<std::string_view, 3> kClockFns = {
      "clock_gettime", "gettimeofday", "timespec_get"};
  static constexpr std::array<std::string_view, 3> kMacros = {
      "__TIME__", "__DATE__", "__TIMESTAMP__"};
  static constexpr std::array<std::string_view, 6> kArtifactCalls = {
      "make_run_artifact",      "write_artifact_files",
      "make_campaign_artifacts", "run_spec_artifact",
      "render_response",         "render_error"};

  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kComment) {
      if (t.text.find("hpcem-lint: sanctioned-source(determinism-flow)") !=
          std::string::npos) {
        f.sanctioned_source = true;
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    for (const std::string_view clock : kClocks) {
      if (t.text != clock) continue;
      const std::size_t j = next_code(toks, i);
      const std::size_t k = j < toks.size() ? next_code(toks, j) : j;
      if (j < end && toks[j].is_punct("::") && k < end &&
          toks[k].is_identifier("now")) {
        f.reads_wall_clock = true;
      }
    }
    for (const std::string_view fns : kClockFns) {
      if (t.text == fns) {
        const std::size_t j = next_code(toks, i);
        if (j < end && toks[j].is_punct("(")) f.reads_wall_clock = true;
      }
    }
    for (const std::string_view macro : kMacros) {
      if (t.text == macro) f.reads_wall_clock = true;
    }

    if (t.text == "rand" || t.text == "srand") {
      const std::size_t j = next_code(toks, i);
      const std::size_t p = prev_code(toks, i);
      const bool member =
          p < toks.size() && (toks[p].is_punct(".") || toks[p].is_punct("->"));
      if (j < end && toks[j].is_punct("(") && !member) {
        f.reads_unseeded_random = true;
      }
    }
    if (t.text == "random_device") f.reads_unseeded_random = true;

    if (t.text == "RunArtifact") f.emits_artifact = true;
    for (const std::string_view call : kArtifactCalls) {
      if (t.text == call) {
        const std::size_t j = next_code(toks, i);
        if (j < end && toks[j].is_punct("(")) f.emits_artifact = true;
      }
    }
  }
}

}  // namespace

SymbolIndex SymbolIndex::build(const std::vector<TranslationUnit>& units) {
  SymbolIndex idx;

  // Phase 1: collect every definition with its determinism facts.
  for (std::size_t u = 0; u < units.size(); ++u) {
    const TranslationUnit& tu = units[u];
    if (tu.ast == nullptr || tu.tokens == nullptr || tu.path == nullptr) {
      continue;
    }
    for (std::size_t d = 0; d < tu.ast->functions.size(); ++d) {
      const FunctionDef& def = tu.ast->functions[d];
      if (def.body_scope == 0 || def.body_scope >= tu.ast->scopes.size()) {
        continue;
      }
      SymbolFunction f;
      f.name = def.name;
      f.qualified_name = def.qualified_name;
      f.class_name = def.class_name;
      f.path = *tu.path;
      f.line = def.name_token < tu.tokens->size()
                   ? (*tu.tokens)[def.name_token].line
                   : 0;
      f.unit = u;
      f.def_index = d;
      const Scope& body = tu.ast->scopes[def.body_scope];
      scan_function_facts(*tu.tokens, def.name_token, body.end_token + 1, f);
      idx.functions_.push_back(std::move(f));
    }
  }
  std::sort(idx.functions_.begin(), idx.functions_.end(),
            [](const SymbolFunction& a, const SymbolFunction& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.qualified_name < b.qualified_name;
            });
  for (std::size_t i = 0; i < idx.functions_.size(); ++i) {
    idx.by_name_.emplace(idx.functions_[i].name, i);
  }

  // Phase 2: resolve call edges inside every body.
  for (SymbolFunction& f : idx.functions_) {
    const TranslationUnit& tu = units[f.unit];
    const Tokens& toks = *tu.tokens;
    const FileAst& ast = *tu.ast;
    const FunctionDef& def = ast.functions[f.def_index];
    const Scope& body = ast.scopes[def.body_scope];

    for (std::size_t i = body.begin_token + 1;
         i < body.end_token && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier || is_call_keyword(t.text)) {
        continue;
      }
      const std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !toks[j].is_punct("(")) continue;

      std::string receiver_type;
      bool typed_receiver = false;
      const std::size_t p = prev_code(toks, i);
      if (p < toks.size()) {
        if (toks[p].is_punct(".") || toks[p].is_punct("->")) {
          typed_receiver = true;
          const std::size_t r = prev_code(toks, p);
          if (r < toks.size() && toks[r].kind == TokenKind::kIdentifier) {
            if (toks[r].is_identifier("this")) {
              receiver_type = f.class_name;
            } else {
              // Only a *simple* receiver (`recv.call()`): if yet another
              // member access precedes it, leave the type unknown.
              const std::size_t rr = prev_code(toks, r);
              const bool simple =
                  rr >= toks.size() ||
                  (!toks[rr].is_punct(".") && !toks[rr].is_punct("->") &&
                   !toks[rr].is_punct("::"));
              if (simple) {
                if (const VarDecl* var = ast.lookup_var(def, toks[r].text)) {
                  receiver_type = var->type_text;
                }
              }
            }
          }
        } else if (toks[p].is_punct("::")) {
          typed_receiver = true;
          const std::size_t q = prev_code(toks, p);
          if (q < toks.size() && toks[q].kind == TokenKind::kIdentifier &&
              toks[q].text != "std") {
            receiver_type = toks[q].text;
          } else if (q < toks.size() && toks[q].text == "std") {
            continue;  // standard-library call: never a project edge
          }
        }
      }
      const std::vector<std::size_t> targets =
          idx.resolve_call(f, t.text, receiver_type, typed_receiver);
      for (const std::size_t tgt : targets) {
        if (std::find(f.callees.begin(), f.callees.end(), tgt) ==
            f.callees.end()) {
          f.callees.push_back(tgt);
        }
      }
    }
    std::sort(f.callees.begin(), f.callees.end());
  }
  return idx;
}

std::vector<std::size_t> SymbolIndex::by_name(std::string_view name) const {
  std::vector<std::size_t> out;
  const auto [lo, hi] = by_name_.equal_range(name);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> SymbolIndex::resolve_call(
    const SymbolFunction& caller, std::string_view name,
    std::string_view receiver_type, bool typed_receiver) const {
  std::vector<std::size_t> all = by_name(name);
  if (all.empty()) return {};

  // Prefer candidates defined in the caller's own file: anonymous-namespace
  // and static helpers shadow same-named functions in other TUs.
  auto prefer_same_path = [&](std::vector<std::size_t> v) {
    std::vector<std::size_t> same;
    for (const std::size_t i : v) {
      if (functions_[i].path == caller.path) same.push_back(i);
    }
    return same.empty() ? v : same;
  };

  if (typed_receiver) {
    if (!receiver_type.empty()) {
      std::vector<std::size_t> filtered;
      for (const std::size_t i : all) {
        const SymbolFunction& f = functions_[i];
        if (!f.class_name.empty() &&
            receiver_type.find(f.class_name) != std::string_view::npos) {
          filtered.push_back(i);
        }
      }
      if (!filtered.empty()) return filtered;
    }
    // Untyped (or unmatched) receiver: only a project-unique name is safe.
    return all.size() == 1 ? all : std::vector<std::size_t>{};
  }

  // Unqualified call: free functions plus the caller's own class methods.
  std::vector<std::size_t> filtered;
  for (const std::size_t i : all) {
    const SymbolFunction& f = functions_[i];
    if (f.class_name.empty() ||
        (!caller.class_name.empty() && f.class_name == caller.class_name)) {
      filtered.push_back(i);
    }
  }
  if (!filtered.empty()) return prefer_same_path(std::move(filtered));
  return all.size() == 1 ? all : std::vector<std::size_t>{};
}

std::vector<bool> SymbolIndex::taint_closure(
    std::vector<std::size_t>& via) const {
  const std::size_t n = functions_.size();
  std::vector<bool> tainted(n, false);
  via.assign(n, npos);

  // Reverse edges: callee -> callers.
  std::vector<std::vector<std::size_t>> callers(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t c : functions_[i].callees) {
      if (c < n) callers[c].push_back(i);
    }
  }

  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    const SymbolFunction& f = functions_[i];
    if ((f.reads_wall_clock || f.reads_unseeded_random) &&
        !f.sanctioned_source) {
      tainted[i] = true;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    const std::size_t cur = queue.front();
    queue.pop_front();
    for (const std::size_t caller : callers[cur]) {
      if (tainted[caller]) continue;
      tainted[caller] = true;
      via[caller] = cur;
      queue.push_back(caller);
    }
  }
  return tainted;
}

}  // namespace hpcem::lint
