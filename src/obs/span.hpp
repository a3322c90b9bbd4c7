// RAII scoped spans.
//
// Usage at an instrumentation site:
//
//   void FacilitySimulator::sample() {
//     HPCEM_OBS_SPAN("sim.sample.power");
//     ...
//   }
//
// The macro interns the name once (thread-safe function-local static) and
// opens a `ScopedSpan` for the enclosing scope.  When collection is
// disabled the constructor is one relaxed load and a branch; defining
// HPCEM_OBS_DISABLE compiles the macro out entirely.
//
// A span records (name, begin, end) into the calling thread's buffer when
// it closes — nesting is recovered at export/profile time from interval
// containment, which keeps the hot path to two clock reads and one
// push_back.  A span that closes inside a request (current_request() != 0,
// see obs/request_context.hpp) is also appended to the thread's flight
// ring tagged with that request id; per-request trace retrieval and
// postmortems are built from those records.  Outside any request (id 0)
// the ring is left untouched.
#pragma once

#include "obs/registry.hpp"
#include "obs/request_context.hpp"

namespace hpcem::obs {

/// Scope guard measuring one span on the current thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(NameId name) {
    if (enabled()) {
      tb_ = &thread_buffer();
      name_ = name;
      begin_ = next_stamp(*tb_);
    }
  }
  ~ScopedSpan() {
    if (tb_ != nullptr) {
      const std::uint64_t end = next_stamp(*tb_);
      tb_->spans.push_back({name_, begin_, end});
      if (const std::uint64_t request = current_request(); request != 0) {
        flight_append(*tb_, FlightKind::kSpan, name_, request, begin_, end);
      }
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadBuffer* tb_ = nullptr;
  NameId name_{};
  std::uint64_t begin_ = 0;
};

}  // namespace hpcem::obs

#define HPCEM_OBS_CONCAT_IMPL(a, b) a##b
#define HPCEM_OBS_CONCAT(a, b) HPCEM_OBS_CONCAT_IMPL(a, b)

#ifdef HPCEM_OBS_DISABLE
#define HPCEM_OBS_SPAN(name_literal) ((void)0)
#else
/// Open a span named `name_literal` for the rest of the enclosing scope.
#define HPCEM_OBS_SPAN(name_literal)                                     \
  static const ::hpcem::obs::NameId HPCEM_OBS_CONCAT(hpcem_obs_name_,    \
                                                     __LINE__) =         \
      ::hpcem::obs::intern_name(name_literal);                           \
  const ::hpcem::obs::ScopedSpan HPCEM_OBS_CONCAT(                       \
      hpcem_obs_span_, __LINE__){HPCEM_OBS_CONCAT(hpcem_obs_name_,       \
                                                  __LINE__)}
#endif
