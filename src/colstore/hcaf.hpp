// HCAF shard writer and strict reader (see colstore/format.hpp for the
// byte layout and docs/ARTIFACT_BINARY.md for the specification).
//
// A shard carries N run artifacts.  The writer stores each scenario's
// distinct time columns once, as "clocks" (two channels share a clock when
// their times are bit-equal, so a simulated artifact has exactly one), and
// each series channel as a clock index plus one value column.  No prefix
// sum is stored: the serving layer builds them at ingest
// (colstore/columns.hpp).  The reader is strict: magic, version, flags,
// footer, the directory checksum, every directory field and every
// column-block extent are validated before any data is trusted, and every
// failure is a one-line `hcaf: <file>: $.path: ...` ParseError.
//
// Round-trip contract: `read_artifacts_*(write_shard_bytes(artifacts))`
// reconstructs `RunArtifact`s whose `to_json_text()` is byte-identical to
// the inputs' — HCAF v2 is exactly as expressive as JSON schema v3.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_artifact.hpp"

namespace hpcem::colstore {

/// One channel as stored in a shard: the whole-run aggregate scalars plus,
/// for a series channel, its clock and value column.
struct ShardChannel {
  /// Aggregate with `series` left empty — the raw samples are
  /// `ShardScenario::clocks[clock]` zipped with `values`.
  ChannelAggregate aggregate;
  /// Index into the scenario's `clocks`; meaningful only with a series.
  std::size_t clock = 0;
  /// Sample values, parallel to the clock; empty for an aggregate-only
  /// channel.
  std::vector<double> values;

  [[nodiscard]] bool has_series() const { return !values.empty(); }
};

/// One artifact as stored in a shard (channel order preserved from the
/// source artifact, so the JSON round trip is exact).
struct ShardScenario {
  std::string name;
  std::string source;
  std::string machine;
  SimTime window_start{};
  SimTime window_end{};
  std::size_t replicates = 1;
  RunHeadline headline;
  std::vector<ArtifactChangePoint> change_points;
  /// The artifact's "obs" member as compact JSON text; empty == null.
  std::string obs_json;
  /// The scenario's distinct time columns (seconds since epoch, each
  /// non-empty and non-decreasing), in order of first use by a channel.
  std::vector<std::vector<double>> clocks;
  std::vector<ShardChannel> channels;
};

/// Serialize artifacts into one HCAF shard (deterministic: equal inputs
/// produce equal bytes; artifact order is preserved).
[[nodiscard]] std::string write_shard_bytes(
    const std::vector<RunArtifact>& artifacts);
/// Write a shard file.  Throws ParseError on I/O failure.
void write_shard_file(const std::vector<RunArtifact>& artifacts,
                      const std::string& path);

/// Parse and fully validate a shard.  `label` names the source in error
/// messages (callers pass the file path).
[[nodiscard]] std::vector<ShardScenario> read_shard_bytes(
    std::string_view bytes, const std::string& label);
/// Read and validate a shard file.  Throws ParseError on unreadable,
/// truncated, corrupt or over-versioned input.
[[nodiscard]] std::vector<ShardScenario> read_shard_file(
    const std::string& path);

/// Reconstruct the exact RunArtifact a shard scenario was written from.
[[nodiscard]] RunArtifact to_artifact(const ShardScenario& s);
/// read_shard_file + to_artifact for every scenario.
[[nodiscard]] std::vector<RunArtifact> read_artifacts_file(
    const std::string& path);

}  // namespace hpcem::colstore
