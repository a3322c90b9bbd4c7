// HCAF — the hpcem columnar artifact format: on-disk layout constants.
//
// An HCAF shard file holds one or more run artifacts in a binary columnar
// layout that `serve::ArtifactStore` can load near-instantly: a scenario's
// sample times are stored once per distinct time column (a "clock" — every
// channel of a simulated run shares one), and each series channel stores
// only its value column plus the index of its clock.  No derived column is
// stored: the Neumaier-compensated prefix sums the windowed-aggregate
// queries difference are built at ingest, by `colstore::build_prefix_sums`.
//
// Byte-level layout (all integers and floats little-endian; see
// docs/ARTIFACT_BINARY.md for the full specification):
//
//   header   16 bytes   "HCAF" magic, u32 format version, u64 flags (0)
//   blocks   8-aligned  raw f64 column blocks (clocks and value columns),
//                       back to back
//   directory            ByteWriter-serialized metadata: per-scenario
//                        identity, headline, change points, obs JSON, the
//                        clock block references, and per-channel
//                        aggregates plus a clock index and a value-block
//                        reference
//   footer   32 bytes   u64 directory offset, u64 directory length,
//                        u64 FNV-1a checksum of the directory bytes,
//                        u32 format version (must match the header),
//                        "FACH" magic
//
// Versioning: the HCAF format version moves independently of the JSON
// run-artifact schema (currently v3).  HCAF v2 carries exactly the
// information of a schema-v3 JSON artifact — the reader reconstructs a
// `RunArtifact` that re-serializes byte-identically.  A reader reads only
// the current version and rejects any other by name; flags are reserved
// for forward-compatible extensions and must be zero.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpcem::colstore {

/// The HCAF format version this build reads and writes (the only one).
inline constexpr int kFormatVersion = 2;

/// Leading file magic: "HCAF".
inline constexpr std::uint8_t kMagic[4] = {'H', 'C', 'A', 'F'};
/// Trailing footer magic: "FACH" (the header magic mirrored, so a
/// truncated or concatenated file can never end in a valid footer by
/// accident).
inline constexpr std::uint8_t kFooterMagic[4] = {'F', 'A', 'C', 'H'};

/// Fixed header size: magic + u32 version + u64 flags.
inline constexpr std::size_t kHeaderSize = 16;
/// Fixed footer size: u64 offset + u64 length + u64 checksum +
/// u32 version + magic.
inline constexpr std::size_t kFooterSize = 32;

/// Column blocks are arrays of f64 and must start 8-byte aligned (the
/// header size keeps the first block aligned; the writer pads nothing
/// because every block is a whole number of 8-byte elements).
inline constexpr std::size_t kBlockAlignment = 8;

/// A channel's u32 clock index when it carries no series (an
/// aggregate-only channel): it then has no value block either.
inline constexpr std::uint32_t kNoClock = 0xFFFFFFFFU;

}  // namespace hpcem::colstore
