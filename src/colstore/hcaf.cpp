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

struct ChannelBlocks {
  BlockRef times, values, prefix_value_sum, prefix_integral;
};

void write_block_ref(ByteWriter& dir, const BlockRef& ref) {
  dir.u64(ref.offset);
  dir.u64(ref.count);
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
  out.u64(0);  // flags: none defined in v1

  // Block region: build the four columns of every series-bearing channel
  // and append them, recording the extents for the directory.  A JSON-backed
  // store is loaded through this writer too, so the stored prefix sums
  // are the exact doubles it serves.
  std::vector<std::vector<ChannelBlocks>> blocks(artifacts.size());
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    blocks[i].resize(artifacts[i].channels.size());
    for (std::size_t j = 0; j < artifacts[i].channels.size(); ++j) {
      const ChannelAggregate& c = artifacts[i].channels[j];
      if (c.series.empty()) continue;
      const ChannelColumns cols = build_columns(c.series);
      const auto append = [&out](const std::vector<double>& col) {
        BlockRef ref{out.size(), col.size()};
        out.f64_block(col);
        return ref;
      };
      ChannelBlocks& b = blocks[i][j];
      b.times = append(cols.times);
      b.values = append(cols.values);
      b.prefix_value_sum = append(cols.prefix_value_sum);
      b.prefix_integral = append(cols.prefix_integral);
    }
  }

  // Directory.
  ByteWriter dir;
  dir.u32(static_cast<std::uint32_t>(artifacts.size()));
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    const RunArtifact& a = artifacts[i];
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
      dir.u8(c.series.empty() ? 0 : 1);
      if (!c.series.empty()) {
        const ChannelBlocks& b = blocks[i][j];
        write_block_ref(dir, b.times);
        write_block_ref(dir, b.values);
        write_block_ref(dir, b.prefix_value_sum);
        write_block_ref(dir, b.prefix_integral);
      }
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
  if (version < 1 || version > static_cast<std::uint32_t>(kFormatVersion)) {
    fail("$.version", "unsupported HCAF format version " +
                          std::to_string(version) + " (this build reads 1.." +
                          std::to_string(kFormatVersion) + ")");
  }
  if (head.u64("$.flags") != 0) {
    fail("$.flags", "unknown flags set (v1 defines none)");
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
      const std::uint8_t has_series = dir.u8(cp + ".has_series");
      if (has_series > 1) {
        fail(cp + ".has_series", "boolean byte must be 0 or 1, got " +
                                     std::to_string(has_series));
      }
      if (has_series == 1) {
        const BlockRef times = read_block_ref(cp + ".times");
        const BlockRef values = read_block_ref(cp + ".values");
        const BlockRef psum = read_block_ref(cp + ".prefix_value_sum");
        const BlockRef pint = read_block_ref(cp + ".prefix_integral");
        if (times.count == 0 || times.count != values.count ||
            psum.count != values.count + 1 ||
            pint.count != values.count + 1) {
          fail(cp, "column counts disagree: times " +
                       std::to_string(times.count) + ", values " +
                       std::to_string(values.count) + ", prefix sums " +
                       std::to_string(psum.count) + "/" +
                       std::to_string(pint.count) +
                       " (prefixes must be values + 1)");
        }
        ByteReader::f64_block(bytes, label, times.offset, times.count,
                              ch.columns.times, cp + ".times");
        ByteReader::f64_block(bytes, label, values.offset, values.count,
                              ch.columns.values, cp + ".values");
        ByteReader::f64_block(bytes, label, psum.offset, psum.count,
                              ch.columns.prefix_value_sum,
                              cp + ".prefix_value_sum");
        ByteReader::f64_block(bytes, label, pint.offset, pint.count,
                              ch.columns.prefix_integral,
                              cp + ".prefix_integral");
        // A NaN passes the ordering check below but breaks every windowed
        // query's binary search and the serve tier's block min/max index.
        for (const auto& [col, name] :
             {std::pair{&ch.columns.times, "times"},
              std::pair{&ch.columns.values, "values"}}) {
          if (!std::ranges::all_of(
                  *col, [](double x) { return std::isfinite(x); })) {
            fail(cp + "." + name,
                 std::string("series ") + name + " must be finite");
          }
        }
        for (std::size_t k = 1; k < ch.columns.times.size(); ++k) {
          if (ch.columns.times[k] < ch.columns.times[k - 1]) {
            fail(cp + ".times", "series times must be non-decreasing");
          }
        }
      }
      s.channels.push_back(std::move(ch));
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
    c.series.reserve(ch.columns.times.size());
    for (std::size_t i = 0; i < ch.columns.times.size(); ++i) {
      c.series.push_back({SimTime(ch.columns.times[i]), ch.columns.values[i]});
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
