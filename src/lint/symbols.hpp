// Cross-translation-unit symbol index with an approximate call graph.
//
// Built once per lint run from every file's FileAst, the index gives the
// semantic rules what a single file cannot: which function a call resolves
// to, and which functions transitively reach a nondeterminism source (so
// determinism-flow can make `no-wall-clock` transitive).
//
// Call resolution is deliberately conservative — over-resolving a call
// would let taint leak across unrelated functions that merely share a
// name.  A call `recv.run()` resolves only to methods of classes named in
// `recv`'s declared type; an unqualified `run()` resolves to free
// functions plus same-class methods; a call through an untyped receiver
// resolves only when the name is unique project-wide.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/ast.hpp"
#include "lint/lexer.hpp"

namespace hpcem::lint {

/// One file's contribution to the index (all pointers outlive the index).
struct TranslationUnit {
  const std::string* path = nullptr;
  const std::vector<Token>* tokens = nullptr;
  const FileAst* ast = nullptr;
};

/// A function definition known to the index.
struct SymbolFunction {
  std::string name;            ///< last declarator segment
  std::string qualified_name;  ///< as spelled at the definition
  std::string class_name;      ///< "" for free functions
  std::string path;
  std::size_t line = 0;
  std::size_t unit = 0;      ///< index into the TranslationUnit vector
  std::size_t def_index = 0; ///< index into that unit's ast->functions
  std::vector<std::size_t> callees;      ///< resolved SymbolFunction indices

  // Determinism facts read straight off the body's tokens.
  bool reads_wall_clock = false;
  bool reads_unseeded_random = false;
  bool sanctioned_source = false;  ///< carries a sanctioned-source comment
  bool emits_artifact = false;     ///< touches the RunArtifact/serve sinks
};

class SymbolIndex {
 public:
  /// Build the index over every parsed file.  Functions are ordered by
  /// (path, line) so all downstream iteration is deterministic.
  [[nodiscard]] static SymbolIndex build(
      const std::vector<TranslationUnit>& units);

  [[nodiscard]] const std::vector<SymbolFunction>& functions() const {
    return functions_;
  }

  /// Functions whose values may depend on a wall-clock or unseeded-RNG
  /// read, directly or through any resolved callee (sanctioned sources
  /// excluded).  `via[i]` is the callee index that tainted function i
  /// (npos for direct sources); useful for witness chains.
  [[nodiscard]] std::vector<bool> taint_closure(
      std::vector<std::size_t>& via) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  /// Indices of every function with this (unqualified) name.
  [[nodiscard]] std::vector<std::size_t> by_name(std::string_view name) const;

  /// Resolve a call to `name` made from inside `caller`:
  ///  - `receiver_type` non-empty: methods of classes named in that type,
  ///  - empty with `typed_receiver` false: free functions + methods of the
  ///    caller's own class,
  ///  - `typed_receiver` true but type unknown: unique-name fallback only.
  [[nodiscard]] std::vector<std::size_t> resolve_call(
      const SymbolFunction& caller, std::string_view name,
      std::string_view receiver_type, bool typed_receiver) const;

  std::vector<SymbolFunction> functions_;
  std::multimap<std::string, std::size_t, std::less<>> by_name_;
};

}  // namespace hpcem::lint
