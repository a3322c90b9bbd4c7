// Strict-reader corruption matrix: every class of malformed shard must
// die as a one-line `hcaf: <label>: ...` ParseError — never a crash, an
// out-of-range read or a silently wrong answer.  Byte surgery targets
// each validation layer in turn (truncation, magic, version, flags,
// footer, checksum, block extents, clock references, time ordering), and
// a seeded fuzzer
// sweeps random mutations (case count scales with HPCEM_HCAF_FUZZ_CASES;
// CI runs 200 under ASan/UBSan in the scenario-smoke job).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "colstore/bytes.hpp"
#include "colstore/format.hpp"
#include "colstore/hcaf.hpp"
#include "core/run_artifact.hpp"
#include "telemetry/timeseries.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpcem::colstore {
namespace {

// Little-endian byte surgery without memcpy/reinterpret_cast (the
// binary-io-hygiene rule bans those outside src/colstore, tests included).
std::uint64_t get_u64(const std::string& b, std::size_t pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[pos + i]))
         << (8 * i);
  }
  return v;
}

void put_u64(std::string& b, std::size_t pos, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_u32(std::string& b, std::size_t pos, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_f64(std::string& b, std::size_t pos, double v) {
  put_u64(b, pos, std::bit_cast<std::uint64_t>(v));
}

/// Footer field offsets from the end (see colstore/format.hpp).
std::size_t footer_at(const std::string& b) { return b.size() - kFooterSize; }

/// Recompute the directory checksum after directory surgery, so the test
/// reaches the validation layer UNDER the checksum.
void refresh_checksum(std::string& b) {
  const std::size_t f = footer_at(b);
  const std::uint64_t dir_offset = get_u64(b, f);
  const std::uint64_t dir_length = get_u64(b, f + 8);
  // A fuzzed footer may carry a nonsense extent; leave the checksum alone
  // then (the reader rejects the extent before reading the checksum).
  if (dir_offset > b.size() || dir_length > b.size() - dir_offset) return;
  put_u64(b, f + 16,
          fnv1a64(std::string_view(b).substr(
              static_cast<std::size_t>(dir_offset),
              static_cast<std::size_t>(dir_length))));
}

TimeSeries ramp_series(std::size_t n) {
  TimeSeries s("kW");
  for (std::size_t i = 0; i < n; ++i) {
    s.append(SimTime(static_cast<double>(i) * 600.0),
             3000.0 + 10.0 * static_cast<double>(i % 37));
  }
  return s;
}

RunArtifact make_artifact(const std::string& scenario, std::size_t samples) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  const TimeSeries s = ramp_series(samples);
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = PowerKw{s.summary().mean};
  a.channels.push_back(aggregate_channel("cabinet_kw", s, true));
  return a;
}

/// A valid two-scenario shard of 32-sample series: scenario "a"'s clock
/// and value blocks occupy [16, 528), scenario "b"'s start at 528.
std::string valid_shard() {
  return write_shard_bytes({make_artifact("a", 32), make_artifact("b", 32)});
}

/// Offsets of scenario "a"'s value block and scenario "b"'s clock block in
/// valid_shard().
constexpr std::uint64_t kFirstValuesOffset = kHeaderSize + 32 * 8;
constexpr std::uint64_t kSecondClockOffset = kHeaderSize + (32 + 32) * 8;

/// Position of the first directory u64 equal to `value` (a block offset:
/// offsets are unique in the directory), or npos.
std::size_t find_in_directory(const std::string& b, std::uint64_t value) {
  const std::size_t f = footer_at(b);
  const std::size_t dir_offset = static_cast<std::size_t>(get_u64(b, f));
  const std::size_t dir_length = static_cast<std::size_t>(get_u64(b, f + 8));
  for (std::size_t pos = dir_offset; pos + 8 <= dir_offset + dir_length;
       ++pos) {
    if (get_u64(b, pos) == value) return pos;
  }
  return std::string::npos;
}

void expect_rejected(const std::string& bytes, const std::string& fragment) {
  try {
    (void)read_shard_bytes(bytes, "corrupt");
    FAIL() << "expected ParseError containing '" << fragment << "'";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hcaf: corrupt"), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
    // One line: tools print reader errors verbatim as `error: ...`.
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(HcafCorruption, RejectsTruncationBelowTheFixedEnvelope) {
  const std::string shard = valid_shard();
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{15}, kHeaderSize,
                                kHeaderSize + kFooterSize - 1}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    expect_rejected(shard.substr(0, len), "truncated");
  }
}

TEST(HcafCorruption, RejectsTruncationAtEverySectionBoundary) {
  const std::string shard = valid_shard();
  const std::size_t f = footer_at(shard);
  const std::uint64_t dir_offset = get_u64(shard, f);
  // Any cut at or after the envelope leaves a buffer whose tail is not a
  // footer (or whose directory no longer fits): all must be rejected.
  for (const std::size_t len :
       {kHeaderSize + kFooterSize,                   // blocks gone
        static_cast<std::size_t>(kSecondClockOffset),// mid block region
        static_cast<std::size_t>(dir_offset),        // directory gone
        static_cast<std::size_t>(dir_offset) + 2,    // mid directory
        shard.size() - kFooterSize,                  // footer gone
        shard.size() - 1}) {                         // last byte gone
    SCOPED_TRACE("len=" + std::to_string(len));
    EXPECT_THROW((void)read_shard_bytes(shard.substr(0, len), "corrupt"),
                 ParseError);
  }
}

TEST(HcafCorruption, RejectsFlippedHeaderMagic) {
  std::string shard = valid_shard();
  shard[0] = 'X';
  expect_rejected(shard, "not an HCAF shard (bad magic)");
}

TEST(HcafCorruption, RejectsOverVersionedHeader) {
  std::string shard = valid_shard();
  put_u32(shard, 4, 99);
  expect_rejected(shard,
                  "unsupported HCAF format version 99 (this build reads");
}

TEST(HcafCorruption, RejectsVersion1Shards) {
  // v1 stored per-channel times and prefix sums; the reader reads only
  // the current version.
  std::string shard = valid_shard();
  put_u32(shard, 4, 1);
  put_u32(shard, footer_at(shard) + 24, 1);
  expect_rejected(shard,
                  "unsupported HCAF format version 1 (this build reads 2)");
}

TEST(HcafCorruption, RejectsUnknownHeaderFlags) {
  std::string shard = valid_shard();
  put_u64(shard, 8, 1);
  expect_rejected(shard, "unknown flags");
}

TEST(HcafCorruption, RejectsFlippedFooterMagic) {
  std::string shard = valid_shard();
  shard[shard.size() - 1] = 'X';
  expect_rejected(shard, "bad footer magic");
}

TEST(HcafCorruption, RejectsHeaderFooterVersionDisagreement) {
  std::string shard = valid_shard();
  put_u32(shard, footer_at(shard) + 24, 7);
  expect_rejected(shard, "does not match header version");
}

TEST(HcafCorruption, RejectsDirectoryChecksumMismatch) {
  std::string shard = valid_shard();
  const std::size_t dir_offset =
      static_cast<std::size_t>(get_u64(shard, footer_at(shard)));
  shard[dir_offset + 5] = static_cast<char>(shard[dir_offset + 5] ^ 0x40);
  expect_rejected(shard, "checksum mismatch");
}

TEST(HcafCorruption, RejectsOverlappingColumnBlockExtents) {
  std::string shard = valid_shard();
  // Redirect scenario "b"'s clock onto scenario "a"'s: find its offset
  // field in the directory and point it back at the first block.
  const std::size_t pos = find_in_directory(shard, kSecondClockOffset);
  ASSERT_NE(pos, std::string::npos) << "directory layout changed";
  put_u64(shard, pos, kHeaderSize);
  refresh_checksum(shard);
  expect_rejected(shard, "overlapping column-block extents");
}

TEST(HcafCorruption, RejectsAClockOverlappingAValueBlock) {
  // Scenario "b"'s clock pointed at scenario "a"'s values: a valid time
  // column on its own (the ramp values are finite and non-decreasing), so
  // only the whole-file extent scan can catch the aliasing.
  std::string shard = valid_shard();
  const std::size_t pos = find_in_directory(shard, kSecondClockOffset);
  ASSERT_NE(pos, std::string::npos);
  put_u64(shard, pos, kFirstValuesOffset);
  refresh_checksum(shard);
  expect_rejected(shard, "overlapping column-block extents");
}

TEST(HcafCorruption, RejectsMisalignedAndOutOfRegionBlocks) {
  for (const bool misaligned : {true, false}) {
    std::string shard = valid_shard();
    const std::size_t dir_offset =
        static_cast<std::size_t>(get_u64(shard, footer_at(shard)));
    const std::uint64_t bad =
        misaligned ? kSecondClockOffset + 1  // breaks 8-alignment
                   : static_cast<std::uint64_t>(dir_offset);  // past blocks
    const std::size_t pos = find_in_directory(shard, kSecondClockOffset);
    ASSERT_NE(pos, std::string::npos);
    put_u64(shard, pos, bad);
    refresh_checksum(shard);
    SCOPED_TRACE(misaligned ? "misaligned" : "out-of-region");
    expect_rejected(shard, "misaligned or outside the block region");
  }
}

TEST(HcafCorruption, RejectsClockIndexOutOfRange) {
  // A channel's u32 clock index sits just before its value-block ref.
  for (const std::uint32_t clock : {1U, 7U, kNoClock - 1}) {
    std::string shard = valid_shard();
    const std::size_t pos = find_in_directory(shard, kFirstValuesOffset);
    ASSERT_NE(pos, std::string::npos);
    put_u32(shard, pos - 4, clock);
    refresh_checksum(shard);
    SCOPED_TRACE("clock " + std::to_string(clock));
    expect_rejected(shard, "$.scenarios[0].channels[0].clock: clock index " +
                               std::to_string(clock) +
                               " out of range (the scenario has 1 clocks)");
  }
}

TEST(HcafCorruption, RejectsValueCountOtherThanItsClocks) {
  for (const std::uint64_t count : {31U, 33U, 0U}) {
    std::string shard = valid_shard();
    const std::size_t pos = find_in_directory(shard, kFirstValuesOffset);
    ASSERT_NE(pos, std::string::npos);
    ASSERT_EQ(get_u64(shard, pos + 8), 32u);
    put_u64(shard, pos + 8, count);
    refresh_checksum(shard);
    SCOPED_TRACE("count " + std::to_string(count));
    expect_rejected(shard, "$.scenarios[0].channels[0].values: value count " +
                               std::to_string(count) +
                               " does not match clock 0's 32 samples");
  }
}

TEST(HcafCorruption, RejectsAClockNoChannelUses) {
  // Turn scenario "a"'s channel into an aggregate-only one (no clock, no
  // value-block ref) and shrink the directory to match: its clock is left
  // referenced by nothing, which the writer never produces.
  std::string shard = valid_shard();
  const std::size_t pos = find_in_directory(shard, kFirstValuesOffset);
  ASSERT_NE(pos, std::string::npos);
  put_u32(shard, pos - 4, kNoClock);
  shard.erase(pos, 16);
  const std::size_t f = footer_at(shard);
  put_u64(shard, f + 8, get_u64(shard, f + 8) - 16);
  refresh_checksum(shard);
  expect_rejected(shard,
                  "$.scenarios[0].clocks[0]: clock is referenced by no "
                  "channel");
}

TEST(HcafCorruption, RejectsUnorderedSeriesTimes) {
  // Raw column data is not checksummed (only the directory is); the
  // reader must still catch a time column that goes backwards.
  std::string shard = valid_shard();
  put_f64(shard, kHeaderSize, 9.0e9);  // clock[0] of scenario "a"
  expect_rejected(shard,
                  "$.scenarios[0].clocks[0]: series times must be "
                  "non-decreasing");
}

TEST(HcafCorruption, RejectsNonFiniteTimesAndValues) {
  // A NaN time passes the non-decreasing check (every comparison with NaN
  // is false), so finiteness is its own check, naming the column.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::size_t offset;  // into scenario "a"'s clock block, then values
    double value;
    const char* column;
  };
  constexpr const char* kClock = "$.scenarios[0].clocks[0]: series times";
  constexpr const char* kValues =
      "$.scenarios[0].channels[0].values: series values";
  for (const Case& c : {Case{kHeaderSize + 5 * 8, nan, kClock},
                        Case{kHeaderSize + 31 * 8, inf, kClock},
                        Case{kHeaderSize + (32 + 3) * 8, nan, kValues},
                        Case{kHeaderSize + (32 + 0) * 8, -inf, kValues}}) {
    std::string shard = valid_shard();
    put_f64(shard, c.offset, c.value);
    refresh_checksum(shard);
    SCOPED_TRACE(std::string(c.column) + " at " + std::to_string(c.offset));
    expect_rejected(shard, c.column);
    expect_rejected(shard, "must be finite");
  }
}

// ---------------------------------------------------------------------------
// Seeded fuzzer.  Three mutation families per case: raw byte flips
// (usually die on the checksum), directory flips with the checksum
// re-stamped (fuzzes the field validators underneath it), and random
// truncation.  The invariant: read_shard_bytes either succeeds or throws
// ParseError; a surviving parse must also convert to artifacts without
// crashing (any hpcem::Error is acceptable there — a mutated obs
// document may fail its schema check).

std::size_t fuzz_cases() {
  if (const char* env = std::getenv("HPCEM_HCAF_FUZZ_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 50;
}

constexpr std::uint64_t kMasterSeed = 0x4CAF5EEDULL;

TEST(HcafCorruption, FuzzedShardsNeverCrashTheReader) {
  const std::string pristine = valid_shard();
  const std::size_t cases = fuzz_cases();
  std::size_t rejected = 0;
  for (std::size_t case_i = 0; case_i < cases; ++case_i) {
    Rng rng(kMasterSeed + case_i * 0x9E3779B97F4A7C15ULL);
    std::string shard = pristine;
    const std::int64_t family = rng.uniform_int(0, 2);
    if (family == 2) {
      shard.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(shard.size()))));
    } else {
      const std::size_t f = footer_at(shard);
      const std::size_t dir_offset =
          static_cast<std::size_t>(get_u64(shard, f));
      const std::size_t lo = family == 1 ? dir_offset : 0;
      const std::size_t hi =
          family == 1 ? f + kFooterSize - 1 : shard.size() - 1;
      const std::int64_t flips = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(lo),
                            static_cast<std::int64_t>(hi)));
        shard[pos] = static_cast<char>(
            shard[pos] ^ static_cast<char>(rng.uniform_int(1, 255)));
      }
      if (family == 1) refresh_checksum(shard);
    }
    SCOPED_TRACE("case " + std::to_string(case_i));
    try {
      const std::vector<ShardScenario> scenarios =
          read_shard_bytes(shard, "fuzz");
      try {
        for (const ShardScenario& s : scenarios) {
          (void)to_artifact(s).to_json_text();
        }
      } catch (const Error&) {
        // Clean structured failure converting a mutated-but-parseable
        // shard (e.g. obs schema) — acceptable.
      }
    } catch (const ParseError&) {
      ++rejected;  // the expected outcome for most mutations
    }
    // Anything else (std::bad_alloc, std::out_of_range, a sanitizer
    // abort) propagates and fails the test.
  }
  // Sanity: the fuzzer is actually exercising the reject paths.
  EXPECT_GT(rejected, cases / 4);
}

}  // namespace
}  // namespace hpcem::colstore
