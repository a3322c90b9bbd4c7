#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/error.hpp"

namespace hpcem {

namespace {

// The checks below run once per value, so they throw directly rather than
// through require(), whose message argument is built on every call.
void require_finite(double v) {
  if (!std::isfinite(v)) {
    throw InvalidArgument("JsonValue: numbers must be finite");
  }
}

}  // namespace

JsonValue::JsonValue(double n) : type_(Type::kNumber), number_(n) {
  require_finite(n);
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw ParseError("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw ParseError("JsonValue: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw ParseError("JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw ParseError("JsonValue: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) throw ParseError("JsonValue: not an object");
  return object_;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (type_ != Type::kObject) {
    throw InvalidArgument("JsonValue::set: not an object");
  }
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (type_ != Type::kArray) {
    throw InvalidArgument("JsonValue::push_back: not an array");
  }
  array_.push_back(std::move(value));
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = get(key);
  if (v == nullptr) {
    throw ParseError("JsonValue: missing member: " + std::string(key));
  }
  return *v;
}

std::string JsonValue::dump(int indent) const {
  JsonWriter w(indent);
  w.value(*this);
  return std::move(w).finish();
}

JsonValue JsonValue::parse(std::string_view text) {
  return parse(text, JsonParseOptions{});
}

JsonValue JsonValue::parse(std::string_view text,
                           const JsonParseOptions& options) {
  JsonReader reader(text, options);
  JsonValue v = reader.value();
  reader.finish();
  return v;
}

// ---------------------------------------------------------------------------
// Writer

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  HPCEM_ASSERT(ec == std::errc(), "json_number: to_chars failed");
  out.append(buf, ptr);
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

void JsonWriter::newline_pad() {
  if (indent_ <= 0) return;
  const std::size_t width = 1 + static_cast<std::size_t>(indent_) *
                                    static_cast<std::size_t>(depth_);
  if (pad_.size() < width) pad_.resize(width, ' ');
  out_.append(pad_.data(), width);
}

void JsonWriter::flush() {
  if (copy_from_ != std::string::npos) {
    copy_text_.append(out_, copy_from_);
    copy_from_ = 0;
  }
  sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void JsonWriter::before_value() {
  // Every value passes here, so a sink writer's buffer passes kFlushBytes
  // by at most one key and one scalar or copied value.
  if (sink_ != nullptr && out_.size() >= kFlushBytes) flush();
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (!first_) out_.push_back(',');
  first_ = false;
  newline_pad();
}

void JsonWriter::key(std::string_view k) {
  if (!first_) out_.push_back(',');
  first_ = false;
  newline_pad();
  append_quoted(out_, k);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  ++depth_;
  first_ = true;
}

void JsonWriter::end_object() {
  --depth_;
  if (!first_) newline_pad();
  out_.push_back('}');
  first_ = false;
}

void JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  ++depth_;
  first_ = true;
}

void JsonWriter::end_array() {
  --depth_;
  if (!first_) newline_pad();
  out_.push_back(']');
  first_ = false;
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

void JsonWriter::boolean(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}

void JsonWriter::number(double v) {
  require_finite(v);
  before_value();
  append_number(out_, v);
}

void JsonWriter::string(std::string_view s) {
  before_value();
  append_quoted(out_, s);
}

void JsonWriter::value(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull: null(); break;
    case JsonValue::Type::kBool: boolean(v.as_bool()); break;
    case JsonValue::Type::kNumber: number(v.as_number()); break;
    case JsonValue::Type::kString: string(v.as_string()); break;
    case JsonValue::Type::kArray:
      begin_array();
      for (const JsonValue& e : v.as_array()) value(e);
      end_array();
      break;
    case JsonValue::Type::kObject:
      begin_object();
      for (const auto& [k, m] : v.as_object()) {
        key(k);
        value(m);
      }
      end_object();
      break;
  }
}

void JsonWriter::begin_copy() {
  before_value();
  // The value's own writes must not repeat the separator just written.
  after_key_ = true;
  copy_text_.clear();
  copy_from_ = out_.size();
}

JsonWriter::Copy JsonWriter::end_copy() {
  Copy copy;
  if (sink_ == nullptr) {
    // An in-memory document keeps every byte: the copy is where it is.
    copy.offset_ = copy_from_;
    copy.size_ = out_.size() - copy_from_;
  } else {
    copy.text_ = std::move(copy_text_);
    copy.text_.append(out_, copy_from_);
  }
  copy_from_ = std::string::npos;
  return copy;
}

void JsonWriter::copied_value(const Copy& copy) {
  before_value();
  if (sink_ == nullptr) {
    out_.append(out_, copy.offset_, copy.size_);
  } else {
    out_.append(copy.text_);
  }
}

std::string JsonWriter::finish() && {
  if (indent_ > 0) out_.push_back('\n');
  if (sink_ == nullptr) return std::move(out_);
  flush();
  return {};
}

// ---------------------------------------------------------------------------
// Reader

void JsonReader::fail(const std::string& why) const {
  // 1-based line/column of pos_, so editors can jump to the defect.
  std::size_t line = 1;
  std::size_t col = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  throw ParseError("json: " + why + " at line " + std::to_string(line) +
                   ", column " + std::to_string(col));
}

bool JsonReader::skip_comment() {
  if (pos_ + 1 >= text_.size()) return false;
  if (text_[pos_ + 1] == '/') {
    pos_ += 2;
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    return true;
  }
  if (text_[pos_ + 1] == '*') {
    const std::size_t open = pos_;
    pos_ += 2;
    while (pos_ + 1 < text_.size() &&
           !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
      ++pos_;
    }
    if (pos_ + 1 >= text_.size()) {
      pos_ = open;
      fail("unterminated /* comment");
    }
    pos_ += 2;
    return true;
  }
  return false;
}

char JsonReader::peek_char() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (peek_char() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void JsonReader::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
  pos_ += lit.size();
}

JsonValue::Type JsonReader::peek() {
  skip_ws();
  switch (peek_char()) {
    case '{': return JsonValue::Type::kObject;
    case '[': return JsonValue::Type::kArray;
    case '"': return JsonValue::Type::kString;
    case 't':
    case 'f': return JsonValue::Type::kBool;
    case 'n': return JsonValue::Type::kNull;
    default: return JsonValue::Type::kNumber;
  }
}

void JsonReader::begin_object() {
  skip_ws();
  expect('{');
  skip_ws();
  if (peek_char() == '}') {
    ++pos_;
    opened_ = Opened::kEmpty;
  } else {
    opened_ = Opened::kFirst;
  }
}

bool JsonReader::next_member(std::string& key) {
  if (opened_ == Opened::kEmpty) {
    opened_ = Opened::kNone;
    return false;
  }
  if (opened_ == Opened::kFirst) {
    opened_ = Opened::kNone;
  } else {
    skip_ws();
    const char c = peek_char();
    if (c == '}') {
      ++pos_;
      return false;
    }
    if (c != ',') fail("expected ',' or '}' in object");
    ++pos_;
  }
  skip_ws();
  key = parse_string();
  skip_ws();
  expect(':');
  return true;
}

void JsonReader::begin_array() {
  skip_ws();
  expect('[');
  skip_ws();
  if (peek_char() == ']') {
    ++pos_;
    opened_ = Opened::kEmpty;
  } else {
    opened_ = Opened::kFirst;
  }
}

bool JsonReader::next_element() {
  if (opened_ == Opened::kEmpty) {
    opened_ = Opened::kNone;
    return false;
  }
  if (opened_ == Opened::kFirst) {
    opened_ = Opened::kNone;
    return true;
  }
  skip_ws();
  const char c = peek_char();
  if (c == ']') {
    ++pos_;
    return false;
  }
  if (c != ',') fail("expected ',' or ']' in array");
  ++pos_;
  return true;
}

namespace {

/// Characters a number token runs over: a malformed token is reported
/// whole rather than cut at the first character from_chars refuses.
bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

}  // namespace

double JsonReader::number() {
  skip_ws();
  // Fast path: from_chars straight off the text.  A finite result that
  // ends where the number characters end is exactly what the token scan
  // below accepts (inf/nan spellings are not number characters).
  const char* first = text_.data() + pos_;
  const char* last = text_.data() + text_.size();
  double value = 0.0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec == std::errc() && std::isfinite(value) &&
      (end == last || !is_number_char(*end))) {
    pos_ += static_cast<std::size_t>(end - first);
    return value;
  }
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) fail("expected a value");
  pos_ = start;
  fail("malformed number");
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': append_unicode_escape(out); break;
      default: fail("bad escape character");
    }
  }
}

void JsonReader::append_unicode_escape(std::string& out) {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail("bad \\u escape digit");
    }
  }
  // UTF-8 encode the BMP code point (surrogate pairs out of scope).
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

JsonValue JsonReader::value() {
  switch (peek()) {
    case JsonValue::Type::kObject: {
      JsonValue obj = JsonValue::object();
      begin_object();
      std::string key;
      while (next_member(key)) obj.set(std::move(key), value());
      return obj;
    }
    case JsonValue::Type::kArray: {
      JsonValue arr = JsonValue::array();
      begin_array();
      while (next_element()) arr.push_back(value());
      return arr;
    }
    case JsonValue::Type::kString: return JsonValue(parse_string());
    case JsonValue::Type::kBool:
      if (text_[pos_] == 't') {
        literal("true");
        return JsonValue(true);
      }
      literal("false");
      return JsonValue(false);
    case JsonValue::Type::kNull:
      literal("null");
      return JsonValue();
    case JsonValue::Type::kNumber: return JsonValue(number());
  }
  return JsonValue();
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

}  // namespace hpcem
