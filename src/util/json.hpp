// Minimal JSON: a streaming writer, a pull reader and a value model.
//
// The run-artifact layer (core/run_artifact.hpp) exchanges structured
// results between benches, tools and external analysis as JSON.  Scope: the
// JSON the library itself writes — objects (insertion-ordered), arrays,
// strings (with standard escapes), finite doubles, bools and null.  It is
// not a general-purpose JSON engine: no surrogate-pair decoding beyond
// \uXXXX -> UTF-8, no comments unless asked for, no NaN/Infinity.
//
// One tokenizer, one serializer.  `JsonReader` is the only tokenizer: it
// pulls a document value by value, and `JsonValue::parse` builds its DOM
// on it.  `JsonWriter` is the only serializer: it appends values to a
// string, or streams them to an ostream, as they are handed over, and
// `JsonValue::dump` walks the DOM through it.  Codecs for large documents
// (the run artifact's sample series) drive the reader and writer
// directly, so a number goes between text and a `double` without a
// `JsonValue` in between; the rest of such a document can still move as
// DOM subtrees (`JsonReader::value`, `JsonWriter::value`).  Either way the
// bytes and the error texts are the same.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpcem {

/// Parse-time dialect switches.  The default is strict JSON; the scenario
/// spec layer (core/spec_io.hpp) enables comments for human-edited files.
/// Artifacts and query wire formats stay strict.
struct JsonParseOptions {
  /// Treat `// line` and `/* block */` comments as whitespace.
  bool allow_comments = false;
};

/// One JSON value: null, bool, number, string, array or object.  Objects
/// preserve insertion order so serialized artifacts are deterministic and
/// diffable.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  JsonValue(double n);                                         // NOLINT
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}      // NOLINT
  JsonValue(std::size_t n)                                     // NOLINT
      : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::string s)                                     // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}      // NOLINT
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  JsonValue(Object o)                                          // NOLINT
      : type_(Type::kObject), object_(std::move(o)) {}

  [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw ParseError on a type mismatch (the artifact
  /// reader treats a mistyped field like malformed input).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Set a member on an object value (must be an object).  A new key
  /// appends, keeping insertion order; an existing key is overwritten in
  /// place.
  void set(std::string key, JsonValue value);
  /// Append an element to an array value (must be an array).
  void push_back(JsonValue value);

  /// Member lookup on an object: nullptr when absent.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// Member lookup on an object; throws ParseError when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Serialize.  `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parse a complete JSON document; throws ParseError on malformed input
  /// or trailing garbage.  Errors report 1-based line and column.
  [[nodiscard]] static JsonValue parse(std::string_view text);
  [[nodiscard]] static JsonValue parse(std::string_view text,
                                       const JsonParseOptions& options);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streaming serializer.  Values are appended in document order; inside an
/// object every value follows its `key`.  `indent` > 0 pretty-prints with
/// that many spaces per level, 0 emits compact single-line JSON — the same
/// bytes `JsonValue::dump` produces for the equivalent DOM.
///
/// Without a sink the document collects in memory and `finish` returns it.
/// With a sink the writer hands the text to the stream in chunks of about
/// kFlushBytes as it goes, so a large document never exists as one string;
/// the bytes are the same either way.
class JsonWriter {
 public:
  /// Buffered output past which a sink writer hands its text to the sink.
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

  explicit JsonWriter(int indent = 2) : indent_(indent) {}
  /// Write the document to `sink`, which must outlive the writer.
  JsonWriter(int indent, std::ostream& sink) : sink_(&sink), indent_(indent) {
    out_.reserve(2 * kFlushBytes);
  }

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Member key of the next value (inside an object).
  void key(std::string_view k);

  void null();
  void boolean(bool b);
  /// Throws InvalidArgument on a non-finite number, like JsonValue(double).
  void number(double v);
  void string(std::string_view s);
  /// A whole DOM subtree.
  void value(const JsonValue& v);

  /// The text of one value as this writer wrote it, to write again with
  /// the same writer.  An in-memory writer still holds the bytes, so its
  /// copy is only their place; a sink writer's copy holds the bytes.
  class Copy {
   private:
    friend class JsonWriter;
    /// Where the text starts, and its size, in an in-memory document.
    std::size_t offset_ = 0;
    std::size_t size_ = 0;
    /// The text itself, for a sink writer, which no longer holds it.
    std::string text_;
  };
  /// Start a copy of the next value; `end_copy` after the value ends it.
  /// One copy is open at a time.
  void begin_copy();
  [[nodiscard]] Copy end_copy();
  /// Write a value copied at the same depth again: the bytes its writes
  /// would produce, without formatting it again.
  void copied_value(const Copy& copy);

  /// Room for `bytes` of output, so a large in-memory document is not
  /// regrown (and recopied) as it is written.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The finished document, newline-terminated when pretty-printing.  With
  /// a sink the rest of the document goes to the sink and the result is
  /// empty; the caller checks the stream's state.
  [[nodiscard]] std::string finish() &&;

 private:
  void before_value();
  void newline_pad();
  /// Hand the buffered text to the sink (and to an open copy).
  void flush();

  std::string out_;
  std::ostream* sink_ = nullptr;
  /// The open copy's flushed text (sink writers only), and the offset in
  /// out_ where its unflushed part starts; npos when no copy is open.
  std::string copy_text_;
  std::size_t copy_from_ = std::string::npos;
  /// A newline and the deepest indentation written so far.
  std::string pad_ = "\n";
  int indent_;
  int depth_ = 0;
  /// The innermost open container has no element yet.
  bool first_ = true;
  /// The last call was key(): the next value belongs to it.
  bool after_key_ = false;
};

/// Pull tokenizer over a complete document.  The caller walks the document
/// in order: `peek` names the next value's type, the scalar readers consume
/// one value, `begin_object`/`next_member` and `begin_array`/`next_element`
/// step through containers, and `value` consumes any value as a DOM
/// subtree.  Malformed input throws ParseError
/// ("json: <why> at line L, column C").
class JsonReader {
 public:
  explicit JsonReader(std::string_view text, JsonParseOptions options = {})
      : text_(text), options_(options) {}

  /// Type of the next value; fails at end of input.  A character that
  /// starts no other value reports kNumber (and number() rejects it).
  [[nodiscard]] JsonValue::Type peek();

  void begin_object();
  /// Step to the next member and read its key; false after the closing
  /// brace.  The member's value must be consumed before the next call.
  [[nodiscard]] bool next_member(std::string& key);
  void begin_array();
  /// Step to the next element; false after the closing bracket.
  [[nodiscard]] bool next_element();

  [[nodiscard]] double number();
  /// The next value as a DOM subtree.
  [[nodiscard]] JsonValue value();

  /// Offset of the next value's first character; with `text_from` after
  /// the value has been read, the value's exact text.
  [[nodiscard]] std::size_t value_start() {
    skip_ws();
    return pos_;
  }
  [[nodiscard]] std::string_view text_from(std::size_t start) const {
    return text_.substr(start, pos_ - start);
  }
  /// Step over the next value when its text is exactly `text`, the whole
  /// text of an array or object (which ends at its own closing bracket);
  /// false, with nothing consumed, otherwise.  Reading the value would
  /// give what reading those bytes gave before.
  [[nodiscard]] bool skip_value_text(std::string_view text) {
    skip_ws();
    if (text.empty() || text_.substr(pos_, text.size()) != text) return false;
    pos_ += text.size();
    return true;
  }

  /// Require that only whitespace (and allowed comments) remains.
  void finish();

 private:
  /// State of the container begun last, until its first step.
  enum class Opened { kNone, kFirst, kEmpty };

  [[noreturn]] void fail(const std::string& why) const;
  /// Skip whitespace (and comments, when allowed).  Inline: it runs
  /// between every two tokens.
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c != '/' || !options_.allow_comments || !skip_comment()) {
        return;
      }
    }
  }
  /// Skip the comment at pos_, if one starts there.
  bool skip_comment();
  char peek_char();
  void expect(char c);
  void literal(std::string_view lit);
  std::string parse_string();
  void append_unicode_escape(std::string& out);

  std::string_view text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
  Opened opened_ = Opened::kNone;
};

/// Escape and double-quote a string for JSON output.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Shortest round-trip decimal rendering of a finite double ("17" not
/// "17.000000"); used for every number the artifact layer writes.
[[nodiscard]] std::string json_number(double v);

}  // namespace hpcem
