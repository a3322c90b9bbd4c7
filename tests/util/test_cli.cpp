// Tests for the CLI argument parser.
#include <gtest/gtest.h>

#include <limits>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

ArgParser make() {
  ArgParser p("test tool");
  p.add_option("name", "default", "a string");
  p.add_option("count", "3", "an integer");
  p.add_option("ratio", "0.5", "a double");
  p.add_flag("verbose", "a flag");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApplyWhenUnset) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(Cli, SpaceAndEqualsForms) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--name", "abc", "--count=7"}));
  EXPECT_EQ(p.get("name"), "abc");
  EXPECT_EQ(p.get_int("count"), 7);
}

TEST(Cli, FlagsAreBoolean) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--verbose"}));
  EXPECT_TRUE(p.get_flag("verbose"));
  ArgParser q = make();
  EXPECT_FALSE(parse(q, {"--verbose=yes"}));
  EXPECT_NE(q.error().find("takes no value"), std::string::npos);
}

TEST(Cli, HelpReturnsFalseWithoutError) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"--help"}));
  EXPECT_TRUE(p.error().empty());
  EXPECT_NE(p.usage().find("--count"), std::string::npos);
  EXPECT_NE(p.usage().find("default: 3"), std::string::npos);
}

TEST(Cli, ErrorsAreDescriptive) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"--unknown", "1"}));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
  ArgParser q = make();
  EXPECT_FALSE(parse(q, {"--name"}));
  EXPECT_NE(q.error().find("needs a value"), std::string::npos);
  ArgParser r = make();
  EXPECT_FALSE(parse(r, {"positional"}));
  EXPECT_NE(r.error().find("positional"), std::string::npos);
}

TEST(Cli, TypeValidationThrows) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--count", "abc"}));
  EXPECT_THROW(p.get_int("count"), InvalidArgument);
  ASSERT_TRUE(parse(p, {"--ratio", "x"}));
  EXPECT_THROW(p.get_double("ratio"), InvalidArgument);
}

TEST(Cli, IntegersBeyondLongAreRejected) {
  ArgParser p = make();
  for (const char* big : {"99999999999999999999", "-99999999999999999999"}) {
    ASSERT_TRUE(parse(p, {"--count", big}));
    try {
      (void)p.get_int("count");
      ADD_FAILURE() << big;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("ArgParser: --count is out of range for an "
                            "integer: ") + big);
    }
  }
  ASSERT_TRUE(parse(p, {"--count", "-9223372036854775808"}));
  EXPECT_EQ(p.get_int("count"), std::numeric_limits<long>::min());
}

TEST(Cli, UndeclaredAccessAndDuplicatesThrow) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), InvalidArgument);
  EXPECT_THROW(p.add_option("name", "x", "dup"), InvalidArgument);
  EXPECT_THROW(p.add_flag("verbose", "dup"), InvalidArgument);
}

TEST(Cli, ReparseResetsState) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--name", "first"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "default");
}

TEST(Cli, VersionFlagWhenConfigured) {
  ArgParser p = make();
  p.set_version("test tool 1.2.3 (run_artifact schema v2)");
  EXPECT_FALSE(parse(p, {"--version"}));
  EXPECT_TRUE(p.version_requested());
  EXPECT_TRUE(p.error().empty());
  EXPECT_EQ(p.version_text(), "test tool 1.2.3 (run_artifact schema v2)");
  EXPECT_NE(p.usage().find("--version"), std::string::npos);

  // A successful reparse clears the request.
  ASSERT_TRUE(parse(p, {"--name", "x"}));
  EXPECT_FALSE(p.version_requested());
}

TEST(Cli, VersionFlagUnknownUnlessConfigured) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"--version"}));
  EXPECT_FALSE(p.version_requested());
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
  EXPECT_EQ(p.usage().find("--version"), std::string::npos);
}

TEST(Cli, PositionalsCollectInOrderWhenDeclared) {
  ArgParser p = make();
  p.allow_positionals("path", "files to process");
  ASSERT_TRUE(parse(p, {"a.cpp", "--name", "x", "b.cpp", "--verbose"}));
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "a.cpp");
  EXPECT_EQ(p.positionals()[1], "b.cpp");
  EXPECT_EQ(p.get("name"), "x");
  EXPECT_TRUE(p.get_flag("verbose"));
  EXPECT_NE(p.usage().find("[path...]"), std::string::npos);
}

TEST(Cli, PositionalsRejectedUnlessDeclaredAndResetOnReparse) {
  ArgParser p = make();
  EXPECT_FALSE(parse(p, {"stray"}));
  EXPECT_NE(p.error().find("positional"), std::string::npos);

  ArgParser q = make();
  q.allow_positionals("path", "files");
  ASSERT_TRUE(parse(q, {"one"}));
  ASSERT_TRUE(parse(q, {}));
  EXPECT_TRUE(q.positionals().empty());
}

}  // namespace
}  // namespace hpcem
