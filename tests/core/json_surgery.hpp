// DOM surgery for artifact codec tests: replace or drop one value of a
// parsed document, addressed by a path of object keys and array indices
// ({"channels", "0", "series", "times"}).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "util/json.hpp"

namespace hpcem::test {

/// Copy of `v` with the value at `path` replaced by `replacement`, or
/// dropped (object member or array element) when `replacement` is empty.
/// A path step that does not exist leaves the copy unchanged.
inline JsonValue edited(const JsonValue& v, std::span<const std::string> path,
                        const std::optional<JsonValue>& replacement) {
  if (path.empty()) return replacement.value_or(JsonValue{});
  const std::string& step = path.front();
  const auto apply = [&](const JsonValue& m, auto&& keep) {
    if (path.size() > 1) {
      keep(edited(m, path.subspan(1), replacement));
    } else if (replacement) {
      keep(*replacement);
    }
  };
  if (v.is_object()) {
    JsonValue out = JsonValue::object();
    for (const auto& [k, m] : v.as_object()) {
      if (k != step) {
        out.set(k, m);
      } else {
        apply(m, [&](JsonValue x) { out.set(k, std::move(x)); });
      }
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::array();
    const JsonValue::Array& a = v.as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::to_string(i) != step) {
        out.push_back(a[i]);
      } else {
        apply(a[i], [&](JsonValue x) { out.push_back(std::move(x)); });
      }
    }
    return out;
  }
  return v;
}

inline JsonValue edited(const JsonValue& v,
                        std::initializer_list<std::string> path,
                        const std::optional<JsonValue>& replacement) {
  return edited(v, std::span<const std::string>(path.begin(), path.size()),
                replacement);
}

}  // namespace hpcem::test
