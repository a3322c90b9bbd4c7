// Shared entry-point scaffolding for the tools/ binaries.
//
// Every tool behaves the same at the edges:
//   - `--version` prints one line (git describe + the schema versions the
//     binary reads/writes) and exits 0,
//   - `--help` prints usage and exits 0,
//   - a usage error prints one line + usage and exits 2,
//   - a runtime failure (unreadable input, malformed file) prints exactly
//     one `error: ...` line on stderr and exits 1 — never a raw exception
//     escaping through std::terminate.
//
// Tools wrap their body in `tool_main([&]{ ... })` and route failed parses
// through `parse_exit` / `usage_error`.
#pragma once

#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "colstore/format.hpp"
#include "core/run_artifact.hpp"
#include "obs/trace_export.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

// Stamped by tools/CMakeLists.txt from `git describe`; "unknown" outside a
// git checkout (e.g. a tarball build).
#ifndef HPCEM_GIT_DESCRIBE
#define HPCEM_GIT_DESCRIBE "unknown"
#endif

namespace hpcem::tools {

/// Exit codes shared by every tool: success, runtime failure, usage error.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;

/// One-line version stamp: tool name, git describe, and the versions of
/// the machine-readable formats this build speaks.
[[nodiscard]] inline std::string version_line(std::string_view tool_name) {
  return std::string(tool_name) + " " + HPCEM_GIT_DESCRIBE +
         " (run_artifact schema v" +
         std::to_string(RunArtifact::kSchemaVersion) + ", trace schema v" +
         std::to_string(obs::kTraceSchemaVersion) + ", hcaf format v" +
         std::to_string(colstore::kFormatVersion) + ")";
}

/// Resolve a failed ArgParser::parse(): --version and --help exit 0, a
/// malformed command line exits 2 with a one-line error.
[[nodiscard]] inline int parse_exit(const ArgParser& args) {
  if (args.version_requested()) {
    std::cout << args.version_text() << '\n';
    return kExitOk;
  }
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << '\n';
    return kExitUsage;
  }
  std::cout << args.usage();  // --help
  return kExitOk;
}

/// A command line that parsed but is unusable (missing required option).
[[nodiscard]] inline int usage_error(const ArgParser& args,
                                     const std::string& message) {
  std::cerr << "error: " << message << '\n';
  std::cout << args.usage();
  return kExitUsage;
}

/// Run the tool body, mapping any escaping exception to one stderr line
/// and exit code 1.  The body returns its own exit code for non-exception
/// outcomes.
template <typename Body>
[[nodiscard]] int tool_main(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitFailure;
  }
}

}  // namespace hpcem::tools
