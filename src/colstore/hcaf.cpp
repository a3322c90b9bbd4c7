#include "colstore/hcaf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <utility>

#include "colstore/bytes.hpp"
#include "colstore/format.hpp"
#include "obs/metrics_export.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"

namespace hpcem::colstore {

namespace {

/// Extent of one column block in the file, for the directory and the
/// whole-file overlap check.
struct BlockRef {
  std::uint64_t offset = 0;  ///< absolute byte offset of the first f64
  std::uint64_t count = 0;   ///< number of f64 elements
};

/// Where one artifact's columns landed in the block region.
struct ScenarioBlocks {
  std::vector<BlockRef> clocks;
  /// Per channel: its clock index (kNoClock without a series) and its
  /// value block.
  std::vector<std::uint32_t> clock_of;
  std::vector<BlockRef> values;
};

void write_block_ref(ByteWriter& dir, const BlockRef& ref) {
  dir.u64(ref.offset);
  dir.u64(ref.count);
}

/// Append one artifact's clocks and value columns to the block region: a
/// clock the first time a channel uses it, then that channel's values.
[[nodiscard]] ScenarioBlocks append_blocks(ByteWriter& out,
                                           const RunArtifact& a) {
  ScenarioBlocks b;
  b.clock_of.assign(a.channels.size(), kNoClock);
  b.values.resize(a.channels.size());
  std::vector<const std::vector<Sample>*> clock_series;  // first user's
  std::vector<double> column;
  const auto append = [&out, &column] {
    BlockRef ref{out.size(), column.size()};
    out.f64_block(column);
    return ref;
  };
  for (std::size_t j = 0; j < a.channels.size(); ++j) {
    const std::vector<Sample>& series = a.channels[j].series;
    if (series.empty()) continue;
    const auto it = std::ranges::find_if(
        clock_series,
        [&series](const auto* clock) { return same_times(*clock, series); });
    b.clock_of[j] = static_cast<std::uint32_t>(it - clock_series.begin());
    if (it == clock_series.end()) {
      clock_series.push_back(&series);
      column.clear();
      for (const Sample& x : series) column.push_back(x.time.sec());
      b.clocks.push_back(append());
    }
    column.clear();
    for (const Sample& x : series) column.push_back(x.value);
    b.values[j] = append();
  }
  return b;
}

[[nodiscard]] bool all_finite(const std::vector<double>& column) {
  return std::ranges::all_of(column, [](double x) { return std::isfinite(x); });
}

[[nodiscard]] std::string scenario_path(std::size_t i) {
  return "$.scenarios[" + std::to_string(i) + "]";
}

[[nodiscard]] std::string channel_path(std::size_t i, std::size_t j) {
  return scenario_path(i) + ".channels[" + std::to_string(j) + "]";
}

}  // namespace

std::string write_shard_bytes(const std::vector<RunArtifact>& artifacts) {
  ByteWriter out;
  for (const std::uint8_t b : kMagic) out.u8(b);
  out.u32(static_cast<std::uint32_t>(kFormatVersion));
  out.u64(0);  // flags: none defined

  // Block region: every artifact's clocks and value columns, recording the
  // extents for the directory.
  std::vector<ScenarioBlocks> blocks;
  blocks.reserve(artifacts.size());
  for (const RunArtifact& a : artifacts) {
    blocks.push_back(append_blocks(out, a));
  }

  // Directory.
  ByteWriter dir;
  dir.u32(static_cast<std::uint32_t>(artifacts.size()));
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    const RunArtifact& a = artifacts[i];
    const ScenarioBlocks& b = blocks[i];
    dir.str(a.scenario);
    dir.str(a.source);
    dir.str(a.machine);
    dir.f64(a.window_start.sec());
    dir.f64(a.window_end.sec());
    dir.u64(a.replicates);
    dir.f64(a.headline.mean_kw.kw());
    dir.f64(a.headline.mean_before_kw.kw());
    dir.f64(a.headline.mean_after_kw.kw());
    dir.f64(a.headline.mean_utilisation);
    dir.f64(a.headline.window_energy_kwh.kwh());
    dir.f64(a.headline.completed_jobs);
    dir.u32(static_cast<std::uint32_t>(a.change_points.size()));
    for (const ArtifactChangePoint& cp : a.change_points) {
      dir.f64(cp.at.sec());
      dir.f64(cp.mean_before_kw.kw());
      dir.f64(cp.mean_after_kw.kw());
      dir.u8(cp.detected ? 1 : 0);
    }
    dir.str(a.obs.is_null() ? std::string() : a.obs.dump(0));
    dir.u32(static_cast<std::uint32_t>(b.clocks.size()));
    for (const BlockRef& clock : b.clocks) write_block_ref(dir, clock);
    dir.u32(static_cast<std::uint32_t>(a.channels.size()));
    for (std::size_t j = 0; j < a.channels.size(); ++j) {
      const ChannelAggregate& c = a.channels[j];
      dir.str(c.name);
      dir.str(c.unit);
      dir.u64(c.samples);
      dir.f64(c.mean);
      dir.f64(c.min);
      dir.f64(c.max);
      dir.f64(c.integral);
      dir.f64(c.first_time.sec());
      dir.f64(c.last_time.sec());
      dir.u32(b.clock_of[j]);
      if (b.clock_of[j] != kNoClock) write_block_ref(dir, b.values[j]);
    }
  }

  const std::uint64_t dir_offset = out.size();
  const std::uint64_t dir_checksum = fnv1a64(dir.bytes());
  const std::uint64_t dir_length = dir.size();

  // Footer: the directory is footer-indexed so the block region needs no
  // self-description and the whole file streams out in one pass.
  ByteWriter footer;
  footer.u64(dir_offset);
  footer.u64(dir_length);
  footer.u64(dir_checksum);
  footer.u32(static_cast<std::uint32_t>(kFormatVersion));
  for (const std::uint8_t b : kFooterMagic) footer.u8(b);

  std::string bytes = out.take();
  bytes += dir.bytes();
  bytes += footer.bytes();
  return bytes;
}

void write_shard_file(const std::vector<RunArtifact>& artifacts,
                      const std::string& path) {
  const std::string bytes = write_shard_bytes(artifacts);
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  outf << bytes;
  if (!outf) throw ParseError("hcaf: cannot write " + path);
}

std::vector<ShardScenario> read_shard_bytes(std::string_view bytes,
                                            const std::string& label) {
  const auto fail = [&label](const std::string& what, const std::string& why)
      -> void {
    throw ParseError("hcaf: " + label + ": " + what + ": " + why);
  };

  if (bytes.size() < kHeaderSize + kFooterSize) {
    fail("$", "truncated: " + std::to_string(bytes.size()) +
                  " bytes is smaller than the fixed header (" +
                  std::to_string(kHeaderSize) + ") + footer (" +
                  std::to_string(kFooterSize) + ")");
  }

  // Header.
  ByteReader head(bytes, label);
  for (const std::uint8_t b : kMagic) {
    if (head.u8("$.magic") != b) {
      fail("$.magic", "not an HCAF shard (bad magic)");
    }
  }
  const std::uint32_t version = head.u32("$.version");
  if (version != static_cast<std::uint32_t>(kFormatVersion)) {
    fail("$.version", "unsupported HCAF format version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kFormatVersion) + ")");
  }
  if (head.u64("$.flags") != 0) {
    fail("$.flags", "unknown flags set (none are defined)");
  }

  // Footer.
  ByteReader foot(bytes, label);
  foot.seek(bytes.size() - kFooterSize, "$.footer");
  const std::uint64_t dir_offset = foot.u64("$.footer.directory_offset");
  const std::uint64_t dir_length = foot.u64("$.footer.directory_length");
  const std::uint64_t dir_checksum = foot.u64("$.footer.checksum");
  const std::uint32_t foot_version = foot.u32("$.footer.version");
  for (const std::uint8_t b : kFooterMagic) {
    if (foot.u8("$.footer.magic") != b) {
      fail("$.footer.magic", "bad footer magic (truncated or corrupt shard)");
    }
  }
  if (foot_version != version) {
    fail("$.footer.version",
         "footer version " + std::to_string(foot_version) +
             " does not match header version " + std::to_string(version));
  }

  const std::uint64_t data_end = bytes.size() - kFooterSize;
  if (dir_offset < kHeaderSize || dir_offset > data_end ||
      dir_length > data_end - dir_offset ||
      dir_offset + dir_length != data_end) {
    fail("$.directory", "directory extent [" + std::to_string(dir_offset) +
                            ", +" + std::to_string(dir_length) +
                            ") does not span header end to footer start");
  }
  if (fnv1a64(bytes.substr(dir_offset, dir_length)) != dir_checksum) {
    fail("$.directory", "checksum mismatch (corrupt directory)");
  }

  // Directory.  Every block extent must land inside the block region
  // [header end, directory start), 8-byte aligned, and no two blocks may
  // overlap — a directory that aliases two columns onto one extent is
  // corrupt even though each individual read would be in bounds.
  ByteReader dir(bytes.substr(dir_offset, dir_length), label);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  const auto read_block_ref = [&](const std::string& what) {
    BlockRef ref;
    ref.offset = dir.u64(what + ".offset");
    ref.count = dir.u64(what + ".count");
    if (ref.offset < kHeaderSize || ref.offset % kBlockAlignment != 0 ||
        ref.offset > dir_offset ||
        ref.count > (dir_offset - ref.offset) / sizeof(double)) {
      fail(what, "column block [" + std::to_string(ref.offset) + ", +" +
                     std::to_string(ref.count) +
                     " f64) is misaligned or outside the block region [" +
                     std::to_string(kHeaderSize) + ", " +
                     std::to_string(dir_offset) + ")");
    }
    if (ref.count > 0) {
      extents.emplace_back(ref.offset, ref.count * sizeof(double));
    }
    return ref;
  };

  std::vector<ShardScenario> scenarios;
  std::set<std::string> seen_names;
  const std::uint32_t scenario_count = dir.u32("$.scenarios");
  for (std::size_t i = 0; i < scenario_count; ++i) {
    const std::string sp = scenario_path(i);
    ShardScenario s;
    s.name = dir.str(sp + ".scenario");
    s.source = dir.str(sp + ".source");
    s.machine = dir.str(sp + ".machine");
    s.window_start = SimTime(dir.f64(sp + ".window_start"));
    s.window_end = SimTime(dir.f64(sp + ".window_end"));
    s.replicates = dir.u64(sp + ".replicates");
    s.headline.mean_kw = PowerKw{dir.f64(sp + ".headline.mean_kw")};
    s.headline.mean_before_kw =
        PowerKw{dir.f64(sp + ".headline.mean_before_kw")};
    s.headline.mean_after_kw =
        PowerKw{dir.f64(sp + ".headline.mean_after_kw")};
    s.headline.mean_utilisation = dir.f64(sp + ".headline.mean_utilisation");
    s.headline.window_energy_kwh =
        EnergyKwh{dir.f64(sp + ".headline.window_energy_kwh")};
    s.headline.completed_jobs = dir.f64(sp + ".headline.completed_jobs");
    if (!seen_names.insert(s.name).second) {
      fail(sp + ".scenario", "duplicate scenario id '" + s.name + "'");
    }

    const std::uint32_t cp_count = dir.u32(sp + ".change_points");
    for (std::size_t k = 0; k < cp_count; ++k) {
      const std::string cpp = sp + ".change_points[" + std::to_string(k) + "]";
      ArtifactChangePoint cp;
      cp.at = SimTime(dir.f64(cpp + ".at"));
      cp.mean_before_kw = PowerKw{dir.f64(cpp + ".mean_before_kw")};
      cp.mean_after_kw = PowerKw{dir.f64(cpp + ".mean_after_kw")};
      const std::uint8_t detected = dir.u8(cpp + ".detected");
      if (detected > 1) {
        fail(cpp + ".detected", "boolean byte must be 0 or 1, got " +
                                    std::to_string(detected));
      }
      cp.detected = detected == 1;
      s.change_points.push_back(cp);
    }

    s.obs_json = dir.str(sp + ".obs");

    // Clocks.  A NaN time passes the ordering check but breaks every
    // windowed query's binary search, so finiteness is checked first.
    const std::uint32_t clock_count = dir.u32(sp + ".clocks");
    for (std::size_t k = 0; k < clock_count; ++k) {
      const std::string kp = sp + ".clocks[" + std::to_string(k) + "]";
      const BlockRef ref = read_block_ref(kp);
      if (ref.count == 0) fail(kp, "a clock must hold at least one sample");
      std::vector<double>& t = s.clocks.emplace_back();
      ByteReader::f64_block(bytes, label, ref.offset, ref.count, t, kp);
      if (!all_finite(t)) fail(kp, "series times must be finite");
      if (!std::ranges::is_sorted(t)) {
        fail(kp, "series times must be non-decreasing");
      }
    }
    std::vector<bool> clock_used(clock_count, false);

    const std::uint32_t channel_count = dir.u32(sp + ".channels");
    for (std::size_t j = 0; j < channel_count; ++j) {
      const std::string cp = channel_path(i, j);
      ShardChannel ch;
      ch.aggregate.name = dir.str(cp + ".name");
      ch.aggregate.unit = dir.str(cp + ".unit");
      ch.aggregate.samples = dir.u64(cp + ".samples");
      ch.aggregate.mean = dir.f64(cp + ".mean");
      ch.aggregate.min = dir.f64(cp + ".min");
      ch.aggregate.max = dir.f64(cp + ".max");
      ch.aggregate.integral = dir.f64(cp + ".integral");
      ch.aggregate.first_time = SimTime(dir.f64(cp + ".first_time"));
      ch.aggregate.last_time = SimTime(dir.f64(cp + ".last_time"));
      const std::uint32_t clock = dir.u32(cp + ".clock");
      if (clock != kNoClock) {
        if (clock >= clock_count) {
          fail(cp + ".clock", "clock index " + std::to_string(clock) +
                                  " out of range (the scenario has " +
                                  std::to_string(clock_count) + " clocks)");
        }
        const BlockRef values = read_block_ref(cp + ".values");
        if (values.count != s.clocks[clock].size()) {
          fail(cp + ".values",
               "value count " + std::to_string(values.count) +
                   " does not match clock " + std::to_string(clock) + "'s " +
                   std::to_string(s.clocks[clock].size()) + " samples");
        }
        ByteReader::f64_block(bytes, label, values.offset, values.count,
                              ch.values, cp + ".values");
        // A NaN value would break the serve tier's block min/max index.
        if (!all_finite(ch.values)) {
          fail(cp + ".values", "series values must be finite");
        }
        ch.clock = clock;
        clock_used[clock] = true;
      }
      s.channels.push_back(std::move(ch));
    }
    for (std::size_t k = 0; k < clock_count; ++k) {
      if (!clock_used[k]) {
        fail(sp + ".clocks[" + std::to_string(k) + "]",
             "clock is referenced by no channel");
      }
    }
    scenarios.push_back(std::move(s));
  }
  if (dir.remaining() != 0) {
    fail("$.directory", std::to_string(dir.remaining()) +
                            " trailing bytes after the last scenario");
  }

  std::sort(extents.begin(), extents.end());
  for (std::size_t k = 1; k < extents.size(); ++k) {
    const auto& [prev_off, prev_len] = extents[k - 1];
    const auto& [off, len] = extents[k];
    if (off < prev_off + prev_len) {
      fail("$.blocks", "overlapping column-block extents [" +
                           std::to_string(prev_off) + ", +" +
                           std::to_string(prev_len) + ") and [" +
                           std::to_string(off) + ", +" + std::to_string(len) +
                           ")");
    }
  }
  return scenarios;
}

std::vector<ShardScenario> read_shard_file(const std::string& path) {
  const auto bytes = read_text_file(path);
  if (!bytes) throw ParseError("hcaf: cannot open " + path);
  return read_shard_bytes(*bytes, path);
}

RunArtifact to_artifact(const ShardScenario& s) {
  RunArtifact a;
  a.scenario = s.name;
  a.source = s.source;
  a.machine = s.machine;
  a.window_start = s.window_start;
  a.window_end = s.window_end;
  a.replicates = s.replicates;
  a.headline = s.headline;
  a.change_points = s.change_points;
  if (!s.obs_json.empty()) {
    // Same validation as RunArtifact::from_json: carry only a well-formed
    // obs-metrics document.
    const JsonValue obs = JsonValue::parse(s.obs_json);
    (void)obs::metrics_from_json(obs);
    a.obs = obs;
  }
  a.channels.reserve(s.channels.size());
  for (const ShardChannel& ch : s.channels) {
    ChannelAggregate c = ch.aggregate;
    if (ch.has_series()) {
      const std::vector<double>& t = s.clocks.at(ch.clock);
      require(t.size() == ch.values.size(), "to_artifact: channel '", c.name,
              "' has ", ch.values.size(), " values on a clock of ", t.size(),
              " samples");
      c.series.reserve(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        c.series.push_back({SimTime(t[i]), ch.values[i]});
      }
    }
    a.channels.push_back(std::move(c));
  }
  return a;
}

std::vector<RunArtifact> read_artifacts_file(const std::string& path) {
  const std::vector<ShardScenario> scenarios = read_shard_file(path);
  std::vector<RunArtifact> artifacts;
  artifacts.reserve(scenarios.size());
  for (const ShardScenario& s : scenarios) {
    artifacts.push_back(to_artifact(s));
  }
  return artifacts;
}

}  // namespace hpcem::colstore
