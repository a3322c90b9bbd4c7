// Liveness proof for the whole rule catalogue: every registered rule has
// a seeded canary fixture under tests/lint/fixtures/<rule>/ and fires on
// it.  A rule that stops matching its own canary — after a lexer change
// or a threshold tweak — fails here instead of silently linting nothing.
//
// Fixture file names encode the repo-relative path the rule should see:
// `__` decodes to `/`, so `src__serve__canary.cpp` is presented to the
// engine as `src/serve/canary.cpp` (several rules key off directories or
// header-ness).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/engine.hpp"

namespace hpcem::lint {
namespace {

namespace fs = std::filesystem;

std::string decode_path(std::string name) {
  std::size_t at;
  while ((at = name.find("__")) != std::string::npos) {
    name.replace(at, 2, "/");
  }
  return name;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LintCanaries, EveryRegisteredRuleFiresOnItsFixture) {
  const fs::path root(HPCEM_LINT_FIXTURE_DIR);
  ASSERT_TRUE(fs::is_directory(root)) << root;

  const LintEngine catalogue;
  ASSERT_FALSE(catalogue.rules().empty());

  for (const auto& rule : catalogue.rules()) {
    const std::string name(rule->name());
    const fs::path dir = root / name;
    ASSERT_TRUE(fs::is_directory(dir))
        << "rule '" << name << "' has no canary fixture directory";

    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty())
        << "rule '" << name << "' has an empty canary fixture directory";

    LintEngine engine;
    for (const fs::path& file : files) {
      engine.add_source(decode_path(file.filename().string()), slurp(file));
    }
    LintConfig config;
    config.only_rules = {name};
    const LintReport report = engine.run(config);

    std::size_t fired = 0;
    for (const Diagnostic& d : report.diagnostics) {
      EXPECT_EQ(d.rule, name)
          << "canary for '" << name << "' tripped a different rule";
      if (d.rule == name) ++fired;
    }
    EXPECT_GE(fired, 1u) << "rule '" << name
                         << "' did not fire on its canary fixture";
  }
}

TEST(LintCanaries, FixtureDirectoriesMatchTheCatalogue) {
  // The reverse direction: a fixture directory for a rule that no longer
  // exists is stale and must be deleted, not shipped.
  const fs::path root(HPCEM_LINT_FIXTURE_DIR);
  const LintEngine catalogue;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(catalogue.has_rule(name))
        << "fixture directory '" << name << "' names no registered rule";
  }
}

}  // namespace
}  // namespace hpcem::lint
