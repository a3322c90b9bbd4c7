// Semantic rule families for hpcem_lint: units-flow and determinism-flow.
//
// Unlike the token-stream rules in rules.cpp, these run on the scope/
// declaration AST (lint/ast.hpp), the per-function unit dataflow
// (lint/dataflow.hpp) and the cross-TU symbol index (lint/symbols.hpp).
// Both are project-scope rules: units-flow needs callee parameter names
// from other files, and determinism-flow needs the whole call graph.
#include <string>

#include "lint/dataflow.hpp"
#include "lint/rule.hpp"
#include "lint/symbols.hpp"

namespace hpcem::lint {
namespace {

/// Assemble the symbol-index view over every file that has an AST.
std::vector<TranslationUnit> translation_units(
    const std::vector<FileContext>& files) {
  std::vector<TranslationUnit> units;
  units.reserve(files.size());
  for (const FileContext& f : files) {
    if (f.ast == nullptr) continue;
    TranslationUnit tu;
    tu.path = &f.path;
    tu.tokens = &f.tokens;
    tu.ast = f.ast.get();
    units.push_back(tu);
  }
  return units;
}

// ---------------------------------------------------------------------------
// Rule: units-flow
// ---------------------------------------------------------------------------
// The paper's accounting arithmetic (kW x h -> kWh, kWh x gCO2/kWh ->
// emissions) is exactly where a silent unit mixup corrupts every downstream
// figure.  units-vocabulary only checks public signatures; this rule tracks
// suffix-named quantities *through* function bodies: initializers,
// assignments, accumulation, returns and call arguments.
class UnitsFlowRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "units-flow";
  }
  [[nodiscard]] std::string_view description() const override {
    return "dataflow check on unit-suffixed quantities (_kw/_kwh/_gco2/...): "
           "power used as energy without a duration multiply, intensity "
           "applied to power, mixed-unit accumulation, call-argument "
           "dimension mismatches";
  }
  void check_project(const std::vector<FileContext>& files,
                     std::vector<Diagnostic>& out) const override {
    const std::vector<TranslationUnit> units = translation_units(files);
    const SymbolIndex index = SymbolIndex::build(units);
    for (const FileContext& f : files) {
      if (f.ast == nullptr) continue;
      for (const FunctionDef& fn : f.ast->functions) {
        std::vector<UnitFinding> findings;
        analyze_function_units(f.tokens, *f.ast, fn, &index, findings);
        for (const UnitFinding& u : findings) {
          const Token& t = f.tokens[u.token];
          out.push_back(Diagnostic{std::string(name()), f.path, t.line,
                                   t.column, u.message});
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: determinism-flow
// ---------------------------------------------------------------------------
// no-wall-clock bans direct reads; this rule makes the ban *transitive*: a
// function that emits a RunArtifact or serve response must not (through any
// resolved call chain) depend on a wall-clock or unseeded-RNG read.  The
// one legitimate clock (obs wall_now_ns, behind the .hpcemlint carve-out)
// opts out with `// hpcem-lint: sanctioned-source(determinism-flow)` at its
// definition — the annotation is the audited boundary, and everything built
// on top of it stays clean by construction.
class DeterminismFlowRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "determinism-flow";
  }
  [[nodiscard]] std::string_view description() const override {
    return "artifact/serve-emitting functions must not transitively depend "
           "on wall-clock or unseeded-RNG reads (call-graph taint from "
           "no-wall-clock sources, minus sanctioned-source annotations)";
  }
  void check_project(const std::vector<FileContext>& files,
                     std::vector<Diagnostic>& out) const override {
    const std::vector<TranslationUnit> units = translation_units(files);
    const SymbolIndex index = SymbolIndex::build(units);
    std::vector<std::size_t> via;
    const std::vector<bool> tainted = index.taint_closure(via);
    const std::vector<SymbolFunction>& fns = index.functions();
    for (std::size_t i = 0; i < fns.size(); ++i) {
      if (!tainted[i] || !fns[i].emits_artifact) continue;
      // Witness chain: sink -> ... -> direct source.
      std::string chain = fns[i].qualified_name;
      std::size_t cur = i;
      std::size_t hops = 0;
      while (via[cur] != SymbolIndex::npos && hops < 8) {
        cur = via[cur];
        chain += " -> " + fns[cur].qualified_name;
        ++hops;
      }
      const char* source = fns[cur].reads_unseeded_random
                               ? "an unseeded-RNG read"
                               : "a wall-clock read";
      out.push_back(Diagnostic{
          std::string(name()), fns[i].path, fns[i].line, 1,
          "artifact-emitting function '" + fns[i].qualified_name +
              "' transitively depends on " + source + " (" + chain +
              "); derive the value from SimTime/seeded Rng, or annotate "
              "the source function with '// hpcem-lint: "
              "sanctioned-source(determinism-flow)' and justify it"});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> semantic_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<UnitsFlowRule>());
  rules.push_back(std::make_unique<DeterminismFlowRule>());
  return rules;
}

}  // namespace hpcem::lint
