#include "lint/ast.hpp"

#include <map>

namespace hpcem::lint {
namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNpos = FileAst::npos;

/// Index of the next non-comment, non-preprocessor token after `i`;
/// toks.size() when none remains.
std::size_t next_code(const Tokens& toks, std::size_t i) {
  ++i;
  while (i < toks.size() && (toks[i].kind == TokenKind::kComment ||
                             toks[i].kind == TokenKind::kPreprocessor)) {
    ++i;
  }
  return i;
}

/// Index of the previous non-comment, non-preprocessor token before `i`;
/// toks.size() when none exists.
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

bool is_any_of(std::string_view text, std::initializer_list<const char*> set) {
  for (const char* s : set) {
    if (text == s) return true;
  }
  return false;
}

/// Keywords that can never start a declaration statement.
bool is_statement_keyword(std::string_view id) {
  return is_any_of(
      id, {"if",        "else",     "for",      "while",    "do",
           "switch",    "case",     "default",  "return",   "break",
           "continue",  "goto",     "try",      "catch",    "throw",
           "using",     "typedef",  "template", "public",   "private",
           "protected", "friend",   "namespace", "new",     "delete",
           "co_return", "co_await", "co_yield", "operator", "sizeof",
           "extern",    "asm",      "static_assert"});
}

/// Identifiers that cannot be a declared variable's *name* (so `const int;`
/// or a trailing qualifier never masquerades as a declarator).
bool is_reserved_name(std::string_view id) {
  return is_any_of(
      id, {"const",    "constexpr", "volatile", "mutable",  "static",
           "inline",   "auto",      "void",     "bool",     "char",
           "int",      "float",     "double",   "unsigned", "signed",
           "long",     "short",     "noexcept", "override", "final",
           "this",     "nullptr",   "true",     "false",    "class",
           "struct",   "union",     "enum",     "typename", "decltype",
           "thread_local"});
}

/// Keywords rejected as the callee of a function *definition* header.
bool is_non_function_keyword(std::string_view id) {
  return is_statement_keyword(id) ||
         is_any_of(id, {"noexcept", "decltype", "alignof", "alignas",
                        "defined", "assert", "requires"});
}

/// Result of running the declaration-head recogniser over a token slice.
struct DeclHead {
  bool ok = false;
  std::size_t name_token = 0;  ///< absolute token index of the declarator
  std::size_t head_end = 0;    ///< first token past the consumed head
};

/// Recognise `type-tokens name` at the front of [begin, end): a maximal run
/// of identifiers / `::` / balanced `<...>` / `*` / `&` / `&&`, whose last
/// identifier is the declared name, with at least one substantive type
/// token before it.  The token at head_end (if any) is the initializer
/// opener (`=`, `(`, `{`) or separator the caller validates.
DeclHead parse_decl_head(const Tokens& toks, std::size_t begin,
                         std::size_t end) {
  DeclHead head;
  std::size_t last_ident = kNpos;
  std::size_t ident_count = 0;
  bool substantive_before_name = false;
  std::size_t i = begin;
  // Skip leading attributes: [[nodiscard]] etc.
  while (i < end && toks[i].is_punct("[") && i + 1 < end &&
         toks[i + 1].is_punct("[")) {
    int depth = 0;
    do {
      if (toks[i].is_punct("[")) ++depth;
      if (toks[i].is_punct("]")) --depth;
      i = next_code(toks, i);
    } while (i < end && depth > 0);
  }
  const std::size_t first = i;
  while (i < end) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kComment || t.kind == TokenKind::kPreprocessor) {
      ++i;
      continue;
    }
    if (t.kind == TokenKind::kIdentifier) {
      if (i == first && is_statement_keyword(t.text)) return head;
      if (last_ident != kNpos) substantive_before_name = true;
      last_ident = i;
      ++ident_count;
      i = next_code(toks, i);
      continue;
    }
    if (t.is_punct("::")) {
      i = next_code(toks, i);
      continue;
    }
    if (t.is_punct("<")) {
      // Balanced template argument list; bail (not a declaration) when the
      // angles do not close inside the slice — it was a comparison.
      int depth = 1;
      std::size_t j = next_code(toks, i);
      while (j < end && depth > 0) {
        if (toks[j].is_punct("<")) ++depth;
        if (toks[j].is_punct(">")) --depth;
        if (toks[j].is_punct(";") || toks[j].is_punct("{")) return head;
        j = next_code(toks, j);
      }
      if (depth != 0) return head;
      if (last_ident != kNpos) substantive_before_name = true;
      i = j;
      continue;
    }
    if (t.is_punct("*") || t.is_punct("&") || t.is_punct("&&")) {
      if (last_ident != kNpos) substantive_before_name = true;
      i = next_code(toks, i);
      continue;
    }
    break;  // head ends at the first token outside the type grammar
  }
  if (last_ident == kNpos || !substantive_before_name) return head;
  if (is_reserved_name(toks[last_ident].text)) return head;
  head.ok = true;
  head.name_token = last_ident;
  head.head_end = i;
  return head;
}

/// Space-joined spelling of the non-comment tokens in [begin, end),
/// excluding index `skip`.
std::string join_tokens(const Tokens& toks, std::size_t begin, std::size_t end,
                        std::size_t skip) {
  std::string out;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (i == skip) continue;
    if (toks[i].kind == TokenKind::kComment ||
        toks[i].kind == TokenKind::kPreprocessor) {
      continue;
    }
    if (!out.empty()) out += ' ';
    out += toks[i].text;
  }
  return out;
}

/// Parse one parameter slice [begin, end) (no top-level commas) into a
/// VarDecl.  Unnamed/unparseable parameters yield an empty name so call
/// arguments keep their positional alignment.
VarDecl parse_param(const Tokens& toks, std::size_t begin, std::size_t end) {
  VarDecl param;
  param.is_param = true;
  // Cut a default argument off at the top-level '='.
  std::size_t cut = end;
  int depth = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.is_punct("(") || t.is_punct("{") || t.is_punct("[")) ++depth;
    if (t.is_punct(")") || t.is_punct("}") || t.is_punct("]")) --depth;
    if (depth == 0 && t.is_punct("=")) {
      cut = i;
      break;
    }
  }
  const DeclHead head = parse_decl_head(toks, begin, cut);
  if (head.ok && head.head_end >= cut) {
    param.name = toks[head.name_token].text;
    param.name_token = head.name_token;
    param.type_text = join_tokens(toks, begin, cut, head.name_token);
  } else {
    param.type_text = join_tokens(toks, begin, cut, kNpos);
  }
  return param;
}

/// A function-definition candidate recognised at an open paren.
struct FunctionCandidate {
  bool ok = false;
  FunctionDef def;
  std::size_t body_token = 0;  ///< index of the body's '{'
};

/// Try to read `name ( params ) [qualifiers] [-> type] [: init-list] {`
/// around the open paren at `open`.  Only called outside function bodies.
FunctionCandidate parse_function_header(const Tokens& toks, std::size_t open) {
  FunctionCandidate cand;
  const std::size_t name_idx = prev_code(toks, open);
  if (name_idx >= toks.size() ||
      toks[name_idx].kind != TokenKind::kIdentifier ||
      is_non_function_keyword(toks[name_idx].text)) {
    return cand;
  }
  // Reject conversion operators (`operator bool(`).
  const std::size_t before_name = prev_code(toks, name_idx);
  if (before_name < toks.size() &&
      toks[before_name].is_identifier("operator")) {
    return cand;
  }

  // Qualified-name walk: `A::B::name`.
  std::string qualified = toks[name_idx].text;
  std::string class_name;
  std::size_t q = name_idx;
  while (true) {
    const std::size_t colon = prev_code(toks, q);
    if (colon >= toks.size() || !toks[colon].is_punct("::")) break;
    const std::size_t seg = prev_code(toks, colon);
    if (seg >= toks.size() || toks[seg].kind != TokenKind::kIdentifier) break;
    if (class_name.empty()) class_name = toks[seg].text;
    qualified = toks[seg].text + "::" + qualified;
    q = seg;
  }
  std::string fn_name = toks[name_idx].text;
  const std::size_t tilde = prev_code(toks, q);
  if (tilde < toks.size() && toks[tilde].is_punct("~")) {
    fn_name = "~" + fn_name;
    qualified = "~" + qualified;
  }

  // Match the parameter list's parens.
  int depth = 1;
  std::size_t close = open;
  while (depth > 0) {
    close = next_code(toks, close);
    if (close >= toks.size()) return cand;
    if (toks[close].is_punct("(")) ++depth;
    if (toks[close].is_punct(")")) --depth;
  }

  // Walk the post-parameter grammar to the body '{' (or bail).  Bounded so
  // a pathological header cannot stall the pass.
  std::size_t j = next_code(toks, close);
  std::size_t body = kNpos;
  for (std::size_t steps = 0; j < toks.size() && steps < 512; ++steps) {
    const Token& t = toks[j];
    if (t.kind == TokenKind::kIdentifier &&
        is_any_of(t.text, {"const", "override", "final", "mutable", "try"})) {
      j = next_code(toks, j);
      continue;
    }
    if (t.is_identifier("noexcept")) {
      j = next_code(toks, j);
      if (j < toks.size() && toks[j].is_punct("(")) {
        int d = 1;
        while (d > 0) {
          j = next_code(toks, j);
          if (j >= toks.size()) return cand;
          if (toks[j].is_punct("(")) ++d;
          if (toks[j].is_punct(")")) --d;
        }
        j = next_code(toks, j);
      }
      continue;
    }
    if (t.is_punct("&") || t.is_punct("&&")) {
      j = next_code(toks, j);
      continue;
    }
    if (t.is_punct("->")) {  // trailing return type
      j = next_code(toks, j);
      int angle = 0;
      while (j < toks.size()) {
        const Token& r = toks[j];
        if (r.is_punct("<")) ++angle;
        if (r.is_punct(">")) --angle;
        if (angle == 0 && (r.is_punct("{") || r.is_punct(";"))) break;
        if (r.is_punct("}")) return cand;
        j = next_code(toks, j);
      }
      continue;
    }
    if (t.is_punct(":")) {  // constructor member-init list
      j = next_code(toks, j);
      while (j < toks.size()) {
        // member name (possibly qualified/templated base)
        while (j < toks.size() &&
               (toks[j].kind == TokenKind::kIdentifier ||
                toks[j].is_punct("::"))) {
          j = next_code(toks, j);
        }
        if (j < toks.size() && toks[j].is_punct("<")) {
          int d = 1;
          while (d > 0) {
            j = next_code(toks, j);
            if (j >= toks.size()) return cand;
            if (toks[j].is_punct("<")) ++d;
            if (toks[j].is_punct(">")) --d;
          }
          j = next_code(toks, j);
        }
        if (j >= toks.size() ||
            (!toks[j].is_punct("(") && !toks[j].is_punct("{"))) {
          return cand;
        }
        const bool paren = toks[j].is_punct("(");
        int d = 1;
        while (d > 0) {
          j = next_code(toks, j);
          if (j >= toks.size()) return cand;
          if (toks[j].is_punct(paren ? "(" : "{")) ++d;
          if (toks[j].is_punct(paren ? ")" : "}")) --d;
        }
        j = next_code(toks, j);
        if (j < toks.size() && toks[j].is_punct(",")) {
          j = next_code(toks, j);
          continue;
        }
        break;
      }
      continue;  // expect the body '{' next
    }
    if (t.is_punct("[")) {  // attribute
      int d = 0;
      do {
        if (toks[j].is_punct("[")) ++d;
        if (toks[j].is_punct("]")) --d;
        j = next_code(toks, j);
        if (j >= toks.size()) return cand;
      } while (d > 0);
      continue;
    }
    if (t.is_punct("{")) {
      body = j;
      break;
    }
    return cand;  // ';', '=', ',' ... — a declaration, not a definition
  }
  if (body == kNpos) return cand;

  // Split the parameter list on top-level commas.
  std::vector<VarDecl> params;
  std::size_t start = next_code(toks, open);
  int pdepth = 0;
  int angle = 0;
  for (std::size_t k = start; k <= close; ++k) {
    const Token& t = toks[k];
    const bool at_end = k == close;
    if (!at_end) {
      if (t.is_punct("(") || t.is_punct("{") || t.is_punct("[")) ++pdepth;
      if (t.is_punct(")") || t.is_punct("}") || t.is_punct("]")) --pdepth;
      if (t.is_punct("<")) ++angle;
      if (t.is_punct(">") && angle > 0) --angle;
    }
    if (at_end || (pdepth == 0 && angle == 0 && t.is_punct(","))) {
      if (k > start) params.push_back(parse_param(toks, start, k));
      start = k + 1;
    }
  }
  if (params.size() == 1 && params[0].name.empty() &&
      params[0].type_text == "void") {
    params.clear();
  }

  cand.ok = true;
  cand.def.name = std::move(fn_name);
  cand.def.qualified_name = std::move(qualified);
  cand.def.class_name = std::move(class_name);
  cand.def.name_token = name_idx;
  cand.def.params = std::move(params);
  cand.body_token = body;
  return cand;
}

}  // namespace

std::size_t FileAst::scope_at(std::size_t i) const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < scopes.size(); ++s) {
    const Scope& sc = scopes[s];
    if (sc.begin_token <= i && i <= sc.end_token &&
        sc.begin_token >= scopes[best].begin_token) {
      best = s;
    }
  }
  return best;
}

std::size_t FileAst::enclosing_function_scope(std::size_t scope_index) const {
  std::size_t s = scope_index;
  while (s < scopes.size()) {
    if (scopes[s].kind == ScopeKind::kFunction) return s;
    if (s == 0) break;  // reached the file scope
    s = scopes[s].parent;
  }
  return npos;
}

const VarDecl* FileAst::lookup_var(const FunctionDef& function,
                                   std::string_view name) const {
  for (const VarDecl& p : function.params) {
    if (!p.name.empty() && p.name == name) return &p;
  }
  for (const VarDecl& l : locals) {
    if (l.name != name) continue;
    // In scope iff the local's scope chain passes through the body scope.
    std::size_t s = l.scope;
    while (true) {
      if (s == function.body_scope) return &l;
      if (s == 0) break;
      s = scopes[s].parent;
    }
  }
  return nullptr;
}

FileAst parse_ast(const std::vector<Token>& toks) {
  FileAst ast;
  Scope file_scope;
  file_scope.kind = ScopeKind::kFile;
  file_scope.parent = 0;
  file_scope.begin_token = 0;
  file_scope.end_token = toks.size();
  ast.scopes.push_back(file_scope);

  // body '{' token index -> index into ast.functions
  std::map<std::size_t, std::size_t> function_body_at;

  std::vector<std::size_t> stack{0};
  std::size_t stmt_start = 0;

  auto current = [&]() -> const Scope& { return ast.scopes[stack.back()]; };
  // Locals live in function bodies; a class body (a local class's too)
  // declares fields, which no rule needs.
  auto in_body = [&] {
    return current().kind != ScopeKind::kClass &&
           ast.enclosing_function_scope(stack.back()) != FileAst::npos;
  };

  auto try_local = [&](std::size_t boundary) {
    const DeclHead head = parse_decl_head(toks, stmt_start, boundary);
    if (!head.ok) return;
    const bool at_slice_end = head.head_end >= boundary;
    if (!at_slice_end) {
      const Token& brk = toks[head.head_end];
      if (!brk.is_punct("=") && !brk.is_punct("(") && !brk.is_punct("{") &&
          !brk.is_punct(",")) {
        return;
      }
    }
    VarDecl local;
    local.name = toks[head.name_token].text;
    local.type_text = join_tokens(toks, stmt_start, head.name_token, kNpos);
    local.name_token = head.name_token;
    local.scope = stack.back();
    ast.locals.push_back(std::move(local));
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kComment || t.kind == TokenKind::kPreprocessor) {
      continue;
    }

    if (t.is_punct("{")) {
      if (in_body()) try_local(i);
      Scope sc;
      sc.begin_token = i;
      sc.end_token = toks.size();
      sc.parent = stack.back();
      const auto fb = function_body_at.find(i);
      if (fb != function_body_at.end()) {
        sc.kind = ScopeKind::kFunction;
        sc.name = ast.functions[fb->second].name;
      } else {
        // Classify by the declaration window behind the brace.
        std::size_t first = toks.size();
        std::size_t back = i;
        for (std::size_t steps = 0; steps < 64; ++steps) {
          const std::size_t p = prev_code(toks, back);
          if (p >= toks.size()) break;
          const Token& bt = toks[p];
          if (bt.kind == TokenKind::kPunct &&
              is_any_of(bt.text,
                        {";", "{", "}", "(", ")", "=", "[", "]", ","})) {
            break;
          }
          first = p;
          back = p;
        }
        // Find the declaring keyword anywhere in the window, not just at
        // its start: access specifiers (`private: struct S {`) and
        // template headers (`template <typename T> struct S {`) legally
        // precede it.
        std::size_t kw = toks.size();
        for (std::size_t p = first; p < i && p < toks.size();
             p = next_code(toks, p)) {
          if (toks[p].is_identifier("namespace") ||
              toks[p].is_identifier("class") ||
              toks[p].is_identifier("struct") ||
              toks[p].is_identifier("union")) {
            kw = p;
            break;
          }
        }
        if (kw < toks.size() && toks[kw].is_identifier("namespace")) {
          sc.kind = ScopeKind::kNamespace;
          std::string name;
          for (std::size_t p = next_code(toks, kw); p < i;
               p = next_code(toks, p)) {
            if (toks[p].kind == TokenKind::kIdentifier ||
                toks[p].is_punct("::")) {
              name += toks[p].text;
            }
          }
          sc.name = std::move(name);
        } else if (kw < toks.size()) {
          sc.kind = ScopeKind::kClass;
          const std::size_t n = next_code(toks, kw);
          if (n < i && toks[n].kind == TokenKind::kIdentifier) {
            sc.name = toks[n].text;
          }
        } else {
          sc.kind = ScopeKind::kBlock;
        }
      }
      ast.scopes.push_back(sc);
      const std::size_t scope_idx = ast.scopes.size() - 1;
      stack.push_back(scope_idx);
      if (fb != function_body_at.end()) {
        ast.functions[fb->second].body_scope = scope_idx;
      }
      stmt_start = i + 1;
      continue;
    }

    if (t.is_punct("}")) {
      if (stack.size() > 1) {
        ast.scopes[stack.back()].end_token = i;
        stack.pop_back();
      }
      stmt_start = i + 1;
      continue;
    }

    if (t.is_punct(";")) {
      if (in_body()) try_local(i);
      stmt_start = i + 1;
      continue;
    }

    if (t.is_punct("(") && current().kind != ScopeKind::kFunction &&
        current().kind != ScopeKind::kBlock) {
      FunctionCandidate cand = parse_function_header(toks, i);
      if (cand.ok && !function_body_at.contains(cand.body_token)) {
        if (cand.def.class_name.empty() &&
            current().kind == ScopeKind::kClass) {
          cand.def.class_name = current().name;
          cand.def.qualified_name =
              current().name + "::" + cand.def.qualified_name;
        }
        ast.functions.push_back(std::move(cand.def));
        function_body_at[cand.body_token] = ast.functions.size() - 1;
      }
    }
  }

  return ast;
}

}  // namespace hpcem::lint
