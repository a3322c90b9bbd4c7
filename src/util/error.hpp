// Error handling primitives for the hpcem library.
//
// The library throws `hpcem::Error` (or a subclass) for all recoverable
// precondition violations; internal invariants use HPCEM_ASSERT which is
// active in all build types (the cost is negligible next to simulation work
// and silent state corruption is far more expensive than a branch).
//
// `require` / `require_state` take their message as parts — string-likes
// and integers — that are joined only inside a cold, out-of-line throw
// helper.  A passing check therefore costs one branch and never touches the
// heap, which matters on the simulator's per-job path: a generated job
// passes a few dozen checks, and the paper's figures simulate 451k jobs.
// Write
// `require(ok, "Scheduler::finish: job not running: ", id)`, not
// `require(ok, "... " + std::to_string(id))`: the concatenation would run,
// and allocate, on every call.
#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hpcem {

/// Base class for all exceptions thrown by the hpcem library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller passes an argument outside a function's domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an operation is attempted on an object in the wrong state
/// (e.g. sampling a simulator that has not been started).
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error(what) {}
};

/// Thrown on malformed external input (CSV traces, config files).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const std::string& msg,
                              const std::source_location& loc);

/// One piece of a `require` message: text, or an integer rendered in
/// decimal exactly as `std::to_string` renders it.
template <class T>
concept MessagePart =
    std::convertible_to<const T&, std::string_view> ||
    (std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char>);

/// Part normalisation for the cold path: text becomes a view, integers
/// widen to (unsigned) long long, so throw_joined is instantiated per
/// part-kind sequence rather than per literal length.
inline std::string_view as_part(std::string_view text) { return text; }
template <std::signed_integral I>
long long as_part(I value) {
  return value;
}
template <std::unsigned_integral I>
unsigned long long as_part(I value) {
  return value;
}

inline void append_part(std::string& out, std::string_view text) {
  out.append(text);
}
inline void append_part(std::string& out, long long value) {
  out.append(std::to_string(value));
}
inline void append_part(std::string& out, unsigned long long value) {
  out.append(std::to_string(value));
}

/// The cold half of require/require_state: builds the message and throws.
template <class E, class... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void throw_joined(Parts... parts) {
  std::string message;
  (append_part(message, parts), ...);
  throw E(message);
}
}  // namespace detail

/// Validate a caller-supplied precondition; throws InvalidArgument with the
/// joined parts on failure.
template <detail::MessagePart... Parts>
inline void require(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]] {
    detail::throw_joined<InvalidArgument>(detail::as_part(parts)...);
  }
}

/// Validate object state; throws StateError with the joined parts on
/// failure.
template <detail::MessagePart... Parts>
inline void require_state(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]] {
    detail::throw_joined<StateError>(detail::as_part(parts)...);
  }
}

}  // namespace hpcem

/// Internal invariant check: active in every build type.
#define HPCEM_ASSERT(expr, msg)                                       \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::hpcem::detail::assert_fail(#expr, (msg),                      \
                                   std::source_location::current());  \
    }                                                                 \
  } while (false)
