// Multi-channel telemetry recorder.
//
// `Recorder` is the facility simulator's sink: named channels ("cabinet_kw",
// "utilisation", ...) each backed by a TimeSeries.
//
// Channels are *interned*: `declare()` resolves a name to a dense
// `ChannelId` exactly once, at composition time, and the one write path,
// `record(ChannelId, ...)`, is an index into a dense channel table — no
// string hashing or map walk per sample.  Reads may go by name
// (`channel(name)`, `find`, `id`, `channel_names`) for tools and
// aggregation.  The table is a plain vector, so a later `declare` may move
// every series: hold a `ChannelId`, never a `TimeSeries&`, across declares.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/timeseries.hpp"
#include "util/error.hpp"

namespace hpcem {

namespace detail {
/// Adds `n` to the obs "telemetry.recorder.samples" counter (out of line:
/// the counter static and its registration stay in recorder.cpp).  Callers
/// count in bulk at quiescent points — a per-sample guard inside
/// Recorder::record measurably slows the ingest loop even when collection
/// is off.
void note_recorder_ingest(std::uint64_t n);
}  // namespace detail

/// Dense handle to an interned recorder channel.  Obtained from
/// `Recorder::declare`/`find`/`id`; valid for the lifetime of the recorder
/// that issued it.
class ChannelId {
 public:
  constexpr ChannelId() = default;

  [[nodiscard]] constexpr std::uint32_t index() const { return index_; }
  [[nodiscard]] constexpr bool valid() const { return index_ != kInvalid; }

  friend constexpr bool operator==(ChannelId, ChannelId) = default;

 private:
  friend class Recorder;
  constexpr explicit ChannelId(std::uint32_t index) : index_(index) {}

  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  std::uint32_t index_ = kInvalid;
};

/// Named collection of telemetry channels.
class Recorder {
 public:
  /// Intern (or re-fetch) a channel, returning its dense handle.
  /// Re-declaring an existing channel with a different unit is an error.
  ChannelId declare(const std::string& name, const std::string& unit);

  /// Handle of an existing channel, nullopt if absent.
  [[nodiscard]] std::optional<ChannelId> find(const std::string& name) const;

  /// Handle of an existing channel; throws StateError if absent.
  [[nodiscard]] ChannelId id(const std::string& name) const;

  /// Record one sample through a handle (the hot path).  Deliberately not
  /// obs-instrumented per call: ingest is counted in bulk from
  /// total_appended() at quiescent points (see detail::note_recorder_ingest).
  void record(ChannelId id, SimTime t, double value) {
    HPCEM_ASSERT(id.index() < channels_.size(),
                 "Recorder::record: invalid channel id");
    channels_[id.index()].series.append(t, value);
  }

  /// Series behind a handle.
  [[nodiscard]] const TimeSeries& series(ChannelId id) const;
  /// Name behind a handle.
  [[nodiscard]] const std::string& name(ChannelId id) const;

  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  /// Total samples ever appended across all channels.  The obs ingest
  /// counter is fed from this in bulk.
  [[nodiscard]] std::uint64_t total_appended() const;

  // -- Reads by name (tools, aggregation). ----------------------------------

  /// Fetch an existing channel; throws StateError if absent.
  [[nodiscard]] const TimeSeries& channel(const std::string& name) const;

  /// Channel names in lexicographic order.
  [[nodiscard]] std::vector<std::string> channel_names() const;

 private:
  struct Channel {
    std::string name;
    TimeSeries series;
  };

  // Dense handle-indexed table.
  std::vector<Channel> channels_;
  // Sorted name -> index intern map (also drives export ordering).
  std::map<std::string, std::uint32_t> index_;
};

}  // namespace hpcem
