// In-memory indexed column store over run artifacts: the data tier of the
// serving layer (see DESIGN.md "Serving layer").
//
// An `ArtifactStore` has one ingest path: a validated HCAF shard
// (colstore/hcaf.hpp).  `load_hcaf_file` reads a compacted shard;
// `add(RunArtifact)` and the JSON loaders (`load_file`, `load_directory`
// over `hpcem_sim --serve-export` / `hpcem_analyze --serve-export` output,
// whose channels carry their series; aggregate-only output such as
// `hpcem_replay --artifact-out` writes is rejected) first encode the
// artifact as a one-artifact shard in memory with the compactor's writer
// and then read it back through the same routine, so a JSON store cannot
// drift from an HCAF one.  That routine turns the shard into a query-ready
// shape:
//   * scenario and channel names are interned to dense ids assigned in
//     lexicographic order, so every iteration over the store is
//     deterministic regardless of ingest order;
//   * a scenario owns its clocks (the shard's distinct time columns, one
//     for a simulated run); each channel views its clock and owns its
//     value column, and ingest builds next to them the prefix sums (value
//     sum and trapezoidal integral, colstore::build_prefix_sums) and a
//     block min/max index over 64-sample blocks, so a windowed aggregate
//     costs two binary searches, prefix differences and at most two
//     partial blocks plus n/64 block entries — never a pass over the
//     window's samples;
//   * every kW channel also gets, at ingest, a prefix column of the
//     interval energies weighted by their midpoint time, which lets
//     `whatif` price a piecewise-linear intensity curve from prefix
//     differences in O(k log n) (QueryEngine::whatif);
//   * a channel with samples but no series (an aggregate-only artifact) is
//     rejected with a one-line error naming the scenario, the channel and
//     `--serve-export`;
//   * duplicate scenario ids across files are rejected at ingest with a
//     one-line error naming both files — a store where the answer depends
//     on which file loaded last is a silent-wrong-answer machine.
//
// The store is frozen after loading: every accessor is const and
// thread-safe by immutability, which is what lets the serving front run
// queries on a pool of workers without a single lock around the data.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/run_artifact.hpp"
#include "util/error.hpp"

namespace hpcem::serve {

/// Thrown when two ingested artifacts claim the same scenario id.  A
/// distinct type so tools can map it to a usage-style exit (the mistake is
/// in the store directory the caller assembled, not in any one file).
class DuplicateScenarioError : public Error {
 public:
  explicit DuplicateScenarioError(const std::string& what) : Error(what) {}
};

/// One channel of one scenario, column-ised for windowed queries.
struct StoredChannel {
  std::string name;
  std::string unit;
  /// Whole-run streaming aggregates (`series` left empty: the raw samples
  /// live in the columns below).
  ChannelAggregate aggregate;

  // Column store of the retained raw samples; empty only for a channel
  // that recorded no samples.
  /// Seconds since epoch, non-decreasing: a view of the owning
  /// StoredScenario's clock, shared by every channel sampled with it.
  std::span<const double> times;
  std::vector<double> values;

  // Query indexes built at ingest (not stored in HCAF).
  /// prefix_value_sum[i] = sum of values[0..i); size == values.size() + 1.
  std::vector<double> prefix_value_sum;
  /// prefix_integral[i] = trapezoidal integral over samples [0..i);
  /// size == values.size() + 1 (unit-seconds, e.g. kW s).
  std::vector<double> prefix_integral;
  /// Samples per block of the min/max index.  A constant, not a knob.
  static constexpr std::size_t kBlock = 64;
  /// block_min[b] / block_max[b]: the left-to-right std::min / std::max
  /// fold over values[b*kBlock, min((b+1)*kBlock, n)).
  std::vector<double> block_min;
  std::vector<double> block_max;
  /// kW channels only (empty otherwise): prefix_moment[i] = compensated
  /// sum of A_j * (m_j - times[0]) over the same intervals as
  /// prefix_integral[i], where A_j is interval j's trapezoid term in
  /// prefix_integral and m_j its midpoint time (kW s^2).
  std::vector<double> prefix_moment;

  [[nodiscard]] bool has_series() const { return !times.empty(); }
};

/// One ingested scenario: its artifact metadata plus columnised channels.
/// Move-only: its channels view `clocks`, and a copy's channels would
/// still view the original's.
struct StoredScenario {
  StoredScenario() = default;
  StoredScenario(StoredScenario&&) = default;
  StoredScenario& operator=(StoredScenario&&) = default;
  StoredScenario(const StoredScenario&) = delete;
  StoredScenario& operator=(const StoredScenario&) = delete;

  std::string name;
  std::string source;        ///< artifact "source" member
  std::string machine;
  std::string source_file;   ///< ingest provenance (add() default "<memory>")
  SimTime window_start{};
  SimTime window_end{};
  std::size_t replicates = 1;
  RunHeadline headline;
  std::vector<ArtifactChangePoint> change_points;
  /// The shard's distinct time columns; never resized after ingest, so
  /// the channels' views stay valid (moving the scenario keeps them).
  std::vector<std::vector<double>> clocks;
  /// Channels sorted by name; index == dense per-scenario channel id.
  std::vector<StoredChannel> channels;

  /// Channel by name, nullptr when absent (binary search).
  [[nodiscard]] const StoredChannel* find_channel(
      const std::string& name) const;
};

/// Windowed aggregate of a stored channel over [start, end).
struct WindowAggregate {
  std::size_t samples = 0;  ///< retained samples inside the window
  double mean = 0.0;        ///< arithmetic mean of in-window sample values
  double min = 0.0;
  double max = 0.0;
  /// Trapezoidal integral over the in-window sample intervals
  /// (unit-seconds); spans only [first, last] in-window sample times.
  double integral = 0.0;
  SimTime first_time{};
  SimTime last_time{};
};

/// Immutable-after-load, deterministically ordered artifact collection.
class ArtifactStore {
 public:
  /// Ingest one artifact by way of a one-artifact HCAF shard.
  /// `source_file` labels error messages and the scenario's provenance.
  /// Throws InvalidArgument on an aggregate-only channel,
  /// DuplicateScenarioError when the scenario id is already present.
  void add(const RunArtifact& artifact,
           const std::string& source_file = "<memory>");

  /// Ingest one artifact JSON file (decoded, then add()).  Throws
  /// ParseError on unreadable or malformed input, InvalidArgument on a
  /// pre-v3 document or an aggregate-only channel, DuplicateScenarioError
  /// on a duplicate scenario id.  Every rejection names `path`.
  void load_file(const std::string& path);

  /// Ingest every `*.artifact.json` directly inside `dir`, in sorted
  /// filename order.  Returns the number of files ingested.
  std::size_t load_directory(const std::string& dir);

  /// Ingest every scenario of one HCAF shard file (colstore/hcaf.hpp).
  /// Near-instant: the shard carries the clocks and value columns ready to
  /// move, so ingest is validation, moves and one pass per channel to
  /// build the prefix sums and query indexes — no JSON parse.  Returns the
  /// number of scenarios ingested.  Throws ParseError on a truncated,
  /// corrupt or other-version shard, InvalidArgument on an aggregate-only
  /// channel, DuplicateScenarioError on a duplicate scenario id.  A shard
  /// that throws ingests nothing.
  std::size_t load_hcaf_file(const std::string& path);

  [[nodiscard]] std::size_t scenario_count() const {
    return scenarios_.size();
  }
  /// Scenario names in lexicographic order (== dense id order).
  [[nodiscard]] std::vector<std::string> scenario_names() const;

  /// Scenario by name; nullptr when absent.
  [[nodiscard]] const StoredScenario* find(const std::string& name) const;
  /// Scenario by name; throws InvalidArgument when absent.
  [[nodiscard]] const StoredScenario& at(const std::string& name) const;
  /// Scenario by dense id (lexicographic rank).
  [[nodiscard]] const StoredScenario& at(std::size_t id) const;

  /// Total retained series samples across every channel of every scenario.
  [[nodiscard]] std::size_t total_series_samples() const;

  /// Sample index range [first, last) of a channel inside [start, end):
  /// two binary searches.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> window_range(
      const StoredChannel& channel, SimTime start, SimTime end);

  /// Windowed aggregate of a channel over [start, end) — window_range
  /// plus prefix-sum lookups; min/max fold the partial edge blocks
  /// sample by sample and the whole blocks from the block index, which
  /// is bit-identical to a scan of the window.  Returns samples == 0 when
  /// the window is empty.
  [[nodiscard]] static WindowAggregate window_aggregate(
      const StoredChannel& channel, SimTime start, SimTime end);

 private:
  /// The one ingest routine: decode and validate an HCAF shard (`label`
  /// names it in errors and provenance), then insert every scenario.
  /// Every check runs before the first insert.
  std::size_t ingest_shard(std::string_view bytes, const std::string& label);

  // Scenarios sorted by name: a std::map gives deterministic iteration and
  // stable addresses (the front hands out StoredScenario pointers).
  std::map<std::string, StoredScenario> scenarios_;
};

}  // namespace hpcem::serve
