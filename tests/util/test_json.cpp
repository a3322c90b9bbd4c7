// Unit tests for the minimal JSON value model, writer and reader used by
// the run-artifact layer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hpcem {
namespace {

TEST(JsonValue, ScalarsAndAccessors) {
  const JsonValue b = true;
  const JsonValue n = 3220.5;
  const JsonValue i = 42;
  const JsonValue s = "archer2";
  EXPECT_TRUE(b.as_bool());
  EXPECT_DOUBLE_EQ(n.as_number(), 3220.5);
  EXPECT_DOUBLE_EQ(i.as_number(), 42.0);
  EXPECT_EQ(s.as_string(), "archer2");
  EXPECT_THROW(b.as_number(), ParseError);
  EXPECT_THROW(n.as_string(), ParseError);
  EXPECT_THROW(s.as_array(), ParseError);
}

TEST(JsonValue, NonFiniteNumbersRejected) {
  EXPECT_THROW(JsonValue{std::nan("")}, InvalidArgument);
  EXPECT_THROW(JsonValue{INFINITY}, InvalidArgument);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue v = JsonValue::object();
  v.set("zeta", 1);
  v.set("alpha", 2);
  v.set("mid", 3);
  EXPECT_EQ(v.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // set() on an existing key overwrites in place.
  v.set("alpha", 9);
  EXPECT_EQ(v.dump(0), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonValue, DumpIsDeterministic) {
  const auto build = [] {
    JsonValue v = JsonValue::object();
    v.set("name", "fig2");
    JsonValue arr = JsonValue::array();
    arr.push_back(1.5);
    arr.push_back("two");
    arr.push_back(JsonValue{});
    v.set("items", std::move(arr));
    return v;
  };
  EXPECT_EQ(build().dump(2), build().dump(2));
}

TEST(JsonValue, NumberRenderingRoundTrips) {
  // Shortest round-trip rendering: parsing the dump recovers the exact
  // double.
  for (const double x : {0.0, -0.0, 1.0, 0.1, 3220.8372880533734,
                         1.0e-300, 1.0e300, -123456.789}) {
    const JsonValue v = x;
    const JsonValue back = JsonValue::parse(v.dump(0));
    EXPECT_EQ(back.as_number(), x) << "value " << x;
  }
}

TEST(JsonParse, ObjectsArraysAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"})");
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("b").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), ParseError);
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"("line\nbreak \"quoted\" tab\t\\ é")");
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" tab\t\\ \xc3\xa9");
}

TEST(JsonParse, QuoteRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  const JsonValue v = JsonValue::parse(json_quote(raw));
  EXPECT_EQ(v.as_string(), raw);
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(JsonValue::parse(""), ParseError);
  EXPECT_THROW(JsonValue::parse("{"), ParseError);
  EXPECT_THROW(JsonValue::parse("[1, 2,]"), ParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), ParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(JsonValue::parse("'single'"), ParseError);
  EXPECT_THROW(JsonValue::parse("truee"), ParseError);
  EXPECT_THROW(JsonValue::parse("nul"), ParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
  EXPECT_THROW(JsonValue::parse("1.2.3"), ParseError);
}

TEST(JsonParse, ErrorsReportLineAndColumn) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)JsonValue::parse(text);
      return std::string("(no error)");
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(message_of(""), "json: unexpected end of input at line 1, "
                            "column 1");
  EXPECT_EQ(message_of("{\"a\": 1,\n \"b\": oops}"),
            "json: expected a value at line 2, column 7");
  EXPECT_EQ(message_of("[1, 2\n3]"),
            "json: expected ',' or ']' in array at line 2, column 1");
  EXPECT_EQ(message_of("{\"a\": 1} x"),
            "json: trailing characters after document at line 1, column 10");
}

TEST(JsonParse, CommentsRejectedByDefaultAllowedByOption) {
  const std::string text =
      "// leading\n{\"a\": /* inline */ 1,\n\"b\": 2 // trailing\n}";
  EXPECT_THROW(JsonValue::parse(text), ParseError);

  const JsonValue v =
      JsonValue::parse(text, JsonParseOptions{.allow_comments = true});
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), 2.0);

  // Comment markers inside strings are content, not comments.
  const JsonValue s = JsonValue::parse(
      R"({"url": "http://x/*y"})", JsonParseOptions{.allow_comments = true});
  EXPECT_EQ(s.at("url").as_string(), "http://x/*y");

  // An unterminated block comment points at its opener.
  try {
    (void)JsonValue::parse("{\n/* never closed",
                           JsonParseOptions{.allow_comments = true});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: unterminated /* comment at line 2, column 1");
  }
}

TEST(JsonParse, RoundTripComplexDocument) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcem.run_artifact");
  v.set("version", 1);
  JsonValue channels = JsonValue::array();
  for (int i = 0; i < 3; ++i) {
    JsonValue c = JsonValue::object();
    c.set("name", "ch" + std::to_string(i));
    c.set("mean", 3000.0 + 0.1 * i);
    channels.push_back(std::move(c));
  }
  v.set("channels", std::move(channels));
  const JsonValue back = JsonValue::parse(v.dump(2));
  EXPECT_EQ(back.dump(2), v.dump(2));
}

// ---------------------------------------------------------------------------
// JsonWriter / JsonReader

/// A nested document touching every value kind, empty containers and
/// escapes; its dump bytes are pinned below.
JsonValue nested_document() {
  JsonValue inner = JsonValue::object();
  inner.set("flag", false);
  inner.set("none", JsonValue{});
  inner.set("empty_obj", JsonValue::object());
  inner.set("empty_arr", JsonValue::array());
  JsonValue rows = JsonValue::array();
  JsonValue row = JsonValue::array();
  row.push_back(-0.5);
  row.push_back(1e21);
  rows.push_back(std::move(row));
  rows.push_back(JsonValue::object());
  inner.set("rows", std::move(rows));
  JsonValue v = JsonValue::object();
  v.set("name", "tab\tquote\"\x01");
  v.set("n", 1654041600);
  v.set("inner", std::move(inner));
  v.set("ok", true);
  return v;
}

TEST(JsonWriter, DumpBytesArePinned) {
  EXPECT_EQ(nested_document().dump(0),
            R"({"name":"tab\tquote\"\u0001","n":1654041600,"inner":{"flag":)"
            R"(false,"none":null,"empty_obj":{},"empty_arr":[],"rows":[[-0.5,)"
            R"(1e+21],{}]},"ok":true})");
  EXPECT_EQ(nested_document().dump(2), R"({
  "name": "tab\tquote\"\u0001",
  "n": 1654041600,
  "inner": {
    "flag": false,
    "none": null,
    "empty_obj": {},
    "empty_arr": [],
    "rows": [
      [
        -0.5,
        1e+21
      ],
      {}
    ]
  },
  "ok": true
}
)");
  EXPECT_EQ(JsonValue::array().dump(2), "[]\n");
  EXPECT_EQ(JsonValue(0.1).dump(0), "0.1");
}

TEST(JsonWriter, StreamedCallsMatchTheDomDump) {
  for (const int indent : {0, 2, 3}) {
    JsonWriter w(indent);
    w.begin_object();
    w.key("name");
    w.string("tab\tquote\"\x01");
    w.key("n");
    w.number(1654041600);
    w.key("inner");
    w.begin_object();
    w.key("flag");
    w.boolean(false);
    w.key("none");
    w.null();
    w.key("empty_obj");
    w.begin_object();
    w.end_object();
    w.key("empty_arr");
    w.begin_array();
    w.end_array();
    w.key("rows");
    w.value(nested_document().at("inner").at("rows"));
    w.end_object();
    w.key("ok");
    w.boolean(true);
    w.end_object();
    EXPECT_EQ(std::move(w).finish(), nested_document().dump(indent))
        << "indent " << indent;
  }
}

/// {"rows": [clock, clock, clock], "objs": [{"t": clock}, {"t": clock}]}
/// with a clock of `n` times.  With `copy` each clock after the first at
/// its depth is the writer's copy of that first one.
void write_clocks(JsonWriter& w, int n, bool copy) {
  const auto clock = [&](std::optional<JsonWriter::Copy>& first) {
    if (first) {
      w.copied_value(*first);
      return;
    }
    if (copy) w.begin_copy();
    w.begin_array();
    for (int i = 0; i < n; ++i) w.number(1654041600.0 + 60.0 * i);
    w.end_array();
    if (copy) first = w.end_copy();
  };
  std::optional<JsonWriter::Copy> row;
  std::optional<JsonWriter::Copy> member;
  w.begin_object();
  w.key("rows");
  w.begin_array();
  for (int i = 0; i < 3; ++i) clock(row);
  w.end_array();
  w.key("objs");
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("t");
    clock(member);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

TEST(JsonWriter, SinkAndCopiesWriteTheSameBytes) {
  for (const int indent : {0, 2, 3}) {
    for (const int n : {0, 1, 3, 20000}) {
      JsonWriter plain(indent);
      write_clocks(plain, n, false);
      const std::string want = std::move(plain).finish();
      if (n == 20000) {
        ASSERT_GT(want.size(), 4 * JsonWriter::kFlushBytes);
      }

      // EXPECT_TRUE, not EXPECT_EQ: gtest's line diff of two documents of
      // 20,000 lines takes more memory than a test should.
      JsonWriter copied(indent);
      write_clocks(copied, n, true);
      EXPECT_TRUE(std::move(copied).finish() == want) << indent << " " << n;

      // Streamed, a copy spans flushes and the sink gets every byte.
      for (const bool copy : {false, true}) {
        std::ostringstream out;
        JsonWriter streamed(indent, out);
        write_clocks(streamed, n, copy);
        EXPECT_EQ(std::move(streamed).finish(), "");
        EXPECT_TRUE(out.str() == want) << indent << " " << n << " " << copy;
      }
    }
  }
}

TEST(JsonWriter, NonFiniteNumbersRejected) {
  JsonWriter w(0);
  EXPECT_THROW(w.number(std::nan("")), InvalidArgument);
  EXPECT_THROW(w.number(-INFINITY), InvalidArgument);
}

TEST(JsonReader, NumbersRoundTripBitExactly) {
  const std::vector<double> xs = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::max(),
      1.7976931348623157e308,
      9007199254740994.0,  // 2^53 + 2
      0.1,
      1654041600.0,    // epoch seconds
      1654213499.75,   // epoch seconds, fractional
      -123456.789};
  JsonWriter w(2);
  w.begin_array();
  for (const double x : xs) w.number(x);
  w.end_array();
  const std::string text = std::move(w).finish();

  JsonReader r(text);
  std::vector<double> back;
  r.begin_array();
  while (r.next_element()) {
    EXPECT_EQ(r.peek(), JsonValue::Type::kNumber);
    back.push_back(r.number());
  }
  r.finish();
  ASSERT_EQ(back.size(), xs.size());
  const JsonValue parsed = JsonValue::parse(text);
  const JsonValue::Array& dom = parsed.as_array();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(xs[i]))
        << "value " << xs[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dom[i].as_number()),
              std::bit_cast<std::uint64_t>(xs[i]))
        << "value " << xs[i];
  }
}

TEST(JsonReader, PullWalkSeesMembersInOrder) {
  JsonReader r(R"( {"a": [1, "two", null, true], "b": {}, "c": {"d": []}} )");
  EXPECT_EQ(r.peek(), JsonValue::Type::kObject);
  r.begin_object();
  std::string key;
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "a");
  r.begin_array();
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.number(), 1.0);
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.peek(), JsonValue::Type::kString);
  EXPECT_EQ(r.value().as_string(), "two");
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.peek(), JsonValue::Type::kNull);
  EXPECT_TRUE(r.value().is_null());
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.peek(), JsonValue::Type::kBool);
  EXPECT_TRUE(r.value().as_bool());
  EXPECT_FALSE(r.next_element());
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "b");
  r.begin_object();
  EXPECT_FALSE(r.next_member(key));
  ASSERT_TRUE(r.next_member(key));
  EXPECT_EQ(key, "c");
  EXPECT_EQ(r.value().dump(0), R"({"d":[]})");
  EXPECT_FALSE(r.next_member(key));
  r.finish();
}

TEST(JsonReader, ErrorsMatchTheDomParser) {
  const auto pulled = [](const std::string& text) {
    try {
      JsonReader r(text);
      r.begin_array();
      while (r.next_element()) (void)r.number();
      r.finish();
      return std::string("(no error)");
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
  };
  const auto parsed = [](const std::string& text) {
    try {
      (void)JsonValue::parse(text);
      return std::string("(no error)");
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
  };
  for (const std::string text :
       {"[1, 2\n3]", "[1, 2,]", "[1, 2", "[1.2.3]", "[-]", "[1e999]",
        "[1] x", "", "[", "[1, 2] ", "[ ]"}) {
    EXPECT_EQ(pulled(text), parsed(text)) << text;
  }
  EXPECT_EQ(pulled("[1, 2,]"), "json: expected a value at line 1, column 7");
}

}  // namespace
}  // namespace hpcem
