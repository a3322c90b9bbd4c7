// Scope/declaration parser for the semantic lint rules.
//
// `parse_ast` turns the token stream from lint/lexer.hpp into a tree of
// brace-matched scopes (namespaces, classes, function bodies, plain blocks)
// plus the declarations the dataflow rules key off: function definitions
// with their parameter lists and local variables with their spelled type.
//
// Like the lexer, this is not a conforming C++ parser and never tries to
// be: it aims to recover *scope structure and names* well enough that the
// units-flow and determinism-flow rules see through
// statements, and it must degrade gracefully (skip, never throw) on any
// construct it does not model (templates with dependent syntax, macros
// expanding to declarations, expression edge cases).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace hpcem::lint {

enum class ScopeKind {
  kFile,       ///< the whole translation unit (always scopes[0])
  kNamespace,  ///< namespace x { ... }
  kClass,      ///< class/struct body
  kFunction,   ///< a function definition's body
  kBlock,      ///< any other brace-matched region (if/for bodies, lambdas,
               ///< init lists we do not model further)
};

/// One brace-matched region of the file.
struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;            ///< namespace/class/function name; "" else
  std::size_t parent = 0;      ///< index into FileAst::scopes (self for 0)
  std::size_t begin_token = 0; ///< index of the opening '{' (0 for kFile)
  std::size_t end_token = 0;   ///< index of the matching '}' (token count
                               ///< when unterminated / kFile)
};

/// A named value declaration: function parameter or local variable.
struct VarDecl {
  std::string name;
  std::string type_text;   ///< spelled type tokens, space-joined
  std::size_t name_token = 0;
  std::size_t scope = 0;   ///< owning scope index
  bool is_param = false;
};

/// A function definition (declarations without bodies are not recorded).
struct FunctionDef {
  std::string name;            ///< last declarator segment ("submit")
  std::string qualified_name;  ///< as spelled ("ServeFront::submit")
  std::string class_name;      ///< enclosing or spelled class ("" if free)
  std::size_t name_token = 0;
  std::size_t params_end = 0;  ///< index of the ')' closing the param list
  std::size_t body_scope = 0;  ///< index of its kFunction scope
  std::vector<VarDecl> params;
};

/// Parsed structure of one file.  Token indices refer to the vector the
/// AST was built from.
struct FileAst {
  std::vector<Scope> scopes;          ///< scopes[0] is the file scope
  std::vector<FunctionDef> functions; ///< in definition order
  std::vector<VarDecl> locals;        ///< locals only (params live on defs)

  /// Innermost scope containing token index `i` (0 = file scope).
  [[nodiscard]] std::size_t scope_at(std::size_t i) const;

  /// Innermost enclosing kFunction scope of `scope_index`, or npos.
  [[nodiscard]] std::size_t enclosing_function_scope(
      std::size_t scope_index) const;

  /// The FunctionDef whose body scope is `scope_index`, or nullptr.
  [[nodiscard]] const FunctionDef* function_of_scope(
      std::size_t scope_index) const;

  /// All VarDecls (params + locals) visible inside `function`, by name;
  /// nullptr when the name is not declared in it.
  [[nodiscard]] const VarDecl* lookup_var(const FunctionDef& function,
                                          std::string_view name) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parse the scope/declaration structure of a lexed file.  Never throws on
/// malformed input.
[[nodiscard]] FileAst parse_ast(const std::vector<Token>& tokens);

}  // namespace hpcem::lint
