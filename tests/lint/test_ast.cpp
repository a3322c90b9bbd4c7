// Scope/declaration parser (lint/ast.hpp): scope nesting and
// classification, function detection, and parameter and local capture.
#include <gtest/gtest.h>

#include "lint/ast.hpp"
#include "lint/lexer.hpp"

namespace hpcem::lint {
namespace {

struct Parsed {
  std::vector<Token> tokens;
  FileAst ast;
};

Parsed parse(const std::string& src) {
  Parsed p;
  p.tokens = lex(src);
  p.ast = parse_ast(p.tokens);
  return p;
}

const FunctionDef* find_fn(const FileAst& ast, std::string_view name) {
  for (const FunctionDef& f : ast.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

// ------------------------------------------------------------------ scopes
TEST(LintAst, ClassifiesNamespaceClassFunctionBlock) {
  const Parsed p = parse(
      "namespace hpcem::serve {\n"
      "class Front {\n"
      " public:\n"
      "  void run() {\n"
      "    if (true) { int x = 0; }\n"
      "  }\n"
      "};\n"
      "}  // namespace hpcem::serve\n");
  ASSERT_GE(p.ast.scopes.size(), 5u);
  EXPECT_EQ(p.ast.scopes[0].kind, ScopeKind::kFile);
  EXPECT_EQ(p.ast.scopes[1].kind, ScopeKind::kNamespace);
  EXPECT_EQ(p.ast.scopes[1].name, "hpcem::serve");
  EXPECT_EQ(p.ast.scopes[2].kind, ScopeKind::kClass);
  EXPECT_EQ(p.ast.scopes[2].name, "Front");
  EXPECT_EQ(p.ast.scopes[3].kind, ScopeKind::kFunction);
  EXPECT_EQ(p.ast.scopes[4].kind, ScopeKind::kBlock);
  EXPECT_EQ(p.ast.scopes[4].parent, 3u);
}

TEST(LintAst, ClassifiesStructAfterAccessSpecifierAndTemplate) {
  const Parsed p = parse(
      "class Outer {\n"
      " private:\n"
      "  struct Inner { int v; };\n"
      "};\n"
      "template <typename T>\n"
      "struct Box { T item; };\n");
  std::size_t classes = 0;
  for (const Scope& s : p.ast.scopes) {
    if (s.kind == ScopeKind::kClass) ++classes;
  }
  EXPECT_EQ(classes, 3u);  // Outer, Inner, Box — none demoted to kBlock
}

TEST(LintAst, ScopeAtFindsInnermost) {
  const Parsed p = parse("void f() { { int x = 0; } }\n");
  // Token stream: void f ( ) { { int x = 0 ; } }
  const std::size_t x_tok = 7;
  EXPECT_EQ(p.tokens[x_tok].text, "x");
  const std::size_t s = p.ast.scope_at(x_tok);
  EXPECT_EQ(p.ast.scopes[s].kind, ScopeKind::kBlock);
  EXPECT_EQ(p.ast.scopes[p.ast.scopes[s].parent].kind, ScopeKind::kFunction);
}

// --------------------------------------------------------------- functions
TEST(LintAst, CapturesFreeFunctionWithParams) {
  const Parsed p = parse(
      "double energy_kwh(double power_kw, double hours) {\n"
      "  return power_kw * hours;\n"
      "}\n");
  const FunctionDef* f = find_fn(p.ast, "energy_kwh");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->class_name, "");
  ASSERT_EQ(f->params.size(), 2u);
  EXPECT_EQ(f->params[0].name, "power_kw");
  EXPECT_EQ(f->params[0].type_text, "double");
  EXPECT_TRUE(f->params[0].is_param);
  EXPECT_EQ(f->params[1].name, "hours");
}

TEST(LintAst, CapturesQualifiedMethodDefinition) {
  const Parsed p = parse(
      "std::string ServeFront::handle(const std::string& line) {\n"
      "  return line;\n"
      "}\n");
  const FunctionDef* f = find_fn(p.ast, "handle");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->qualified_name, "ServeFront::handle");
  EXPECT_EQ(f->class_name, "ServeFront");
  ASSERT_EQ(f->params.size(), 1u);
  EXPECT_EQ(f->params[0].name, "line");
}

TEST(LintAst, InlineMethodInheritsEnclosingClass) {
  const Parsed p = parse(
      "class Cache {\n"
      "  std::size_t size() const noexcept { return n_; }\n"
      "  std::size_t n_ = 0;\n"
      "};\n");
  const FunctionDef* f = find_fn(p.ast, "size");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->class_name, "Cache");
  EXPECT_EQ(f->qualified_name, "Cache::size");
}

TEST(LintAst, FunctionDeclarationsWithoutBodiesAreNotRecorded) {
  const Parsed p = parse(
      "double area(double r);\n"
      "double area(double r) { return r * r; }\n");
  std::size_t count = 0;
  for (const FunctionDef& f : p.ast.functions) {
    if (f.name == "area") ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(LintAst, ControlFlowKeywordsAreNotFunctions) {
  const Parsed p = parse(
      "void f() {\n"
      "  if (g()) { h(); }\n"
      "  while (true) {}\n"
      "  for (int i = 0; i < 3; ++i) {}\n"
      "  switch (k()) { default: break; }\n"
      "}\n");
  EXPECT_EQ(p.ast.functions.size(), 1u);
  EXPECT_EQ(p.ast.functions[0].name, "f");
}

// -------------------------------------------------------- locals / lookup
TEST(LintAst, CapturesLocalsAndLookupPrefersFunctionScope) {
  const Parsed p = parse(
      "void f(double total_kwh) {\n"
      "  double draw_kw = 1.5;\n"
      "  const std::vector<double>& samples = all();\n"
      "}\n");
  const FunctionDef* f = find_fn(p.ast, "f");
  ASSERT_NE(f, nullptr);
  const VarDecl* param = p.ast.lookup_var(*f, "total_kwh");
  ASSERT_NE(param, nullptr);
  EXPECT_TRUE(param->is_param);
  const VarDecl* local = p.ast.lookup_var(*f, "draw_kw");
  ASSERT_NE(local, nullptr);
  EXPECT_FALSE(local->is_param);
  EXPECT_EQ(local->type_text, "double");
  const VarDecl* ref = p.ast.lookup_var(*f, "samples");
  ASSERT_NE(ref, nullptr);
  EXPECT_NE(ref->type_text.find("vector"), std::string::npos);
  EXPECT_EQ(p.ast.lookup_var(*f, "not_declared"), nullptr);
}

TEST(LintAst, LocalClassFieldsAreNotLocals) {
  const Parsed p = parse(
      "void f() {\n"
      "  struct Row { int width = 0; double share{0.5}; };\n"
      "  int n = 1;\n"
      "}\n");
  const FunctionDef* f = find_fn(p.ast, "f");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(p.ast.lookup_var(*f, "n"), nullptr);
  EXPECT_EQ(p.ast.lookup_var(*f, "width"), nullptr);
  EXPECT_EQ(p.ast.lookup_var(*f, "share"), nullptr);
}

// ------------------------------------------------------------- degradation
TEST(LintAst, NeverThrowsOnMalformedInput) {
  EXPECT_NO_THROW((void)parse("class {{{"));
  EXPECT_NO_THROW((void)parse("}}} namespace"));
  EXPECT_NO_THROW((void)parse("void f(int"));
  EXPECT_NO_THROW((void)parse(""));
  EXPECT_NO_THROW((void)parse("#define M(x) { x }\nM(};)\n"));
}

}  // namespace
}  // namespace hpcem::lint
