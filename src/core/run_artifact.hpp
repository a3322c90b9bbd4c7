// Shared run-artifact layer: one structured, machine-readable record of a
// run, emitted identically by every bench and tool.
//
// The paper's analysis is a comparison exercise — sim vs published, sim vs
// real telemetry, policy A vs policy B — and comparisons need artifacts
// with one schema, not N hand-rolled text formats.  A `RunArtifact`
// captures what a run *was* (scenario name, machine, measurement window),
// what it *measured* (per-channel streaming aggregates: count, mean,
// min/max, trapezoidal time integral) and what it *concluded* (headline
// numbers, change points), serialized as deterministic JSON plus a
// long-format CSV.  Two artifacts with the same schema diff cleanly, which
// makes "did the replay match the meter?" a file diff.
//
// Producers: `make_run_artifact` over a finished simulator (the figure
// benches, `hpcem_sim --spec`), `run_campaign` results via
// `make_campaign_artifacts` (`hpcem_sim --campaign`), `hpcem_replay` (trace
// replays through an assembly's simulator) and `hpcem_analyze` (real
// telemetry CSVs).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/assembly.hpp"
#include "core/campaign.hpp"
#include "telemetry/recorder.hpp"
#include "util/json.hpp"

namespace hpcem {

/// Streaming aggregate of one telemetry channel: the exact online
/// accumulators a TimeSeries maintains at append time.
struct ChannelAggregate {
  std::string name;
  std::string unit;
  /// Samples ever appended.
  std::size_t samples = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Trapezoidal time integral, unit-seconds (kW channel -> kW s).
  double integral = 0.0;
  SimTime first_time{};
  SimTime last_time{};
  /// The channel's retained raw samples, time-ordered.  Optional in the
  /// document — empty means "aggregates only" — but the serving layer
  /// (src/serve) ingests only channels that carry them (or recorded no
  /// samples), since its sub-window and what-if queries read the series.
  std::vector<Sample> series;
};

/// One operational level shift: scheduled (the known rollout instant) or
/// detected (recovered from the data by segmentation).
struct ArtifactChangePoint {
  SimTime at{};
  PowerKw mean_before_kw;
  PowerKw mean_after_kw;
  /// True when recovered from the telemetry alone, false for the
  /// scheduled rollout record.
  bool detected = false;
};

/// Structured record of one run (or one merged campaign scenario).
///
/// Schema: v3 only.  v1 had no "obs" member and v2 no channel "series";
/// both are rejected with a pointer to `--serve-export`.  A missing "obs"
/// means "not collected", a missing "series" means "aggregates only".
struct RunArtifact {
  static constexpr int kSchemaVersion = 3;

  std::string scenario = "run";
  /// Producer: "simulation" | "campaign" | "trace-replay" | "telemetry-csv".
  std::string source = "simulation";
  /// Machine model label ("archer2", ...); empty when not applicable.
  std::string machine;
  SimTime window_start{};
  SimTime window_end{};
  /// Merged replicate count (1 for single runs).
  std::size_t replicates = 1;

  RunHeadline headline;
  std::vector<ArtifactChangePoint> change_points;
  /// Whole-run channel aggregates (empty for merged campaign artifacts,
  /// whose per-channel streams live in the per-replicate runs).
  std::vector<ChannelAggregate> channels;
  /// Runtime observability metrics (hpcem.obs_metrics document), or null
  /// when collection was off.
  JsonValue obs;

  /// Deterministic JSON (fixed member order, shortest round-trip
  /// numbers): equal artifacts serialize to equal bytes.  Streamed through
  /// a JsonWriter; series samples never become JsonValues.  Each clock is
  /// formatted once: a channel whose times are bit-equal to an earlier
  /// channel's (`same_times`) gets that channel's "times" text again.
  [[nodiscard]] std::string to_json_text() const;
  /// Long-format CSV of the channel aggregates:
  /// channel,unit,samples,mean,min,max,integral,first_time,last_time.
  [[nodiscard]] std::string to_csv() const;

  /// Pulled through a JsonReader; series samples go straight into the
  /// channels' sample vectors.  Each clock is parsed once: a "times" array
  /// byte-equal to the last one that parsed wholly as numbers is stepped
  /// over and takes that clock's times, which is what parsing it again
  /// would give.  Members may come in any order, the last of
  /// a duplicated member wins and unknown members are ignored.  Throws
  /// ParseError on malformed JSON, a missing or mistyped member, or a count
  /// (schema_version, replicates, samples) that is not a non-negative
  /// integer <= 2^53; InvalidArgument on a schema rule (wrong schema, a
  /// version other than 3, series length mismatch, decreasing series
  /// times).
  [[nodiscard]] static RunArtifact from_json_text(std::string_view text);
};

/// True when two series have bit-equal times: one clock.  -0.0 and 0.0
/// are different clocks, so a clock stored or written once round-trips
/// exactly for every channel that shares it.
[[nodiscard]] bool same_times(const std::vector<Sample>& a,
                              const std::vector<Sample>& b);

/// Exact streaming aggregate of one series.  With `include_series` the
/// aggregate also carries the retained raw samples (the v3 "series"
/// member), making the artifact ingestible for sub-window serving queries.
[[nodiscard]] ChannelAggregate aggregate_channel(const std::string& name,
                                                 const TimeSeries& series,
                                                 bool include_series = false);

/// Aggregates of every channel in a recorder, in name order.
[[nodiscard]] std::vector<ChannelAggregate> aggregate_channels(
    const Recorder& recorder, bool include_series = false);

/// Human-readable machine label for a spec's machine model.
[[nodiscard]] std::string machine_label(MachineModel machine);

/// The process's merged obs metrics as an artifact "obs" member: an
/// hpcem.obs_metrics document when collection is enabled, null otherwise.
/// Producers call this once, at artifact-assembly time.
[[nodiscard]] JsonValue collected_obs_metrics();

/// Artifact of a finished single run: the result's headline (computed once,
/// by analyze_timeline), change points from the window analysis, and channel
/// aggregates over the whole simulated span (warmup included — the
/// aggregates describe the stream, the headline describes the window).
[[nodiscard]] RunArtifact make_run_artifact(const FacilitySimulator& sim,
                                            const ScenarioSpec& spec,
                                            const TimelineResult& result);

/// Artifact of one merged campaign scenario (replicate-mean headline, no
/// per-channel streams).
[[nodiscard]] RunArtifact make_run_artifact(const ScenarioOutcome& outcome,
                                            const ScenarioSpec& spec);

/// One artifact per campaign scenario, in campaign order.  `specs` must be
/// the spec list the campaign ran (matched by index).
[[nodiscard]] std::vector<RunArtifact> make_campaign_artifacts(
    const CampaignResult& result, const std::vector<ScenarioSpec>& specs);

/// Write `<basename>.artifact.json` (and, when the artifact carries channel
/// aggregates, `<basename>.aggregates.csv`); returns the JSON path.  The
/// JSON is the bytes of `to_json_text()`, streamed to the file through a
/// fixed-size writer buffer, so the whole document is never one string;
/// it replaces the file only once complete.  Throws ParseError on I/O
/// failure.
std::string write_artifact_files(const RunArtifact& artifact,
                                 const std::string& basename);

}  // namespace hpcem
