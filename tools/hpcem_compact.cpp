// hpcem_compact: offline compactor from JSON artifacts to HCAF shards.
//
// Reads every `*.artifact.json` directly inside --store, assigns each
// scenario to one of --shards shards by consistent hashing of its
// scenario id (the SAME ring hpcem_serve routes lookups through — see
// colstore/shard.hpp), and writes `shard-NNN.hcaf` files plus a
// `manifest.json` receipt into --out.  The whole pipeline is
// deterministic: the same input artifacts and shard count always produce
// byte-identical shard files (scenarios ordered by id inside each shard)
// and an identical manifest.
//
// --verify reloads every written shard and checks each reconstructed
// artifact re-serializes byte-identically to its JSON source — the
// round-trip proof, run on the operator's real data.
//
// Examples:
//   hpcem_compact --store runs/ --out shards/ --shards 4
//   hpcem_compact --store runs/ --out shards/ --shards 2 --verify
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "colstore/bytes.hpp"
#include "colstore/format.hpp"
#include "colstore/hcaf.hpp"
#include "colstore/shard.hpp"
#include "obs/session.hpp"
#include "tool_main.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"

namespace {

using namespace hpcem;

/// One input artifact with its provenance (for error messages and the
/// verify pass).
struct LoadedArtifact {
  RunArtifact artifact;
  std::string path;
};

std::vector<LoadedArtifact> load_store(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::directory_iterator it(dir, ec);
  if (ec) {
    throw ParseError("hpcem_compact: cannot read directory " + dir + ": " +
                     ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".artifact.json";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<LoadedArtifact> loaded;
  loaded.reserve(paths.size());
  for (const std::string& path : paths) {
    const auto text = read_text_file(path);
    if (!text) throw ParseError("hpcem_compact: cannot open " + path);
    loaded.push_back({RunArtifact::from_json_text(*text), path});
  }
  return loaded;
}

std::string shard_file_name(std::size_t shard) {
  std::string n = std::to_string(shard);
  while (n.size() < 3) n.insert(n.begin(), '0');
  return "shard-" + n + ".hcaf";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "hpcem_compact — compact *.artifact.json stores into HCAF shards "
      "(consistent-hash assignment, manifest receipt)");
  args.add_option("store", "",
                  "directory of *.artifact.json files to compact (required)");
  args.add_option("out", "",
                  "output directory for shard-NNN.hcaf + manifest.json "
                  "(required)");
  args.add_option("shards", "1", "shard count (>= 1)");
  args.add_flag("verify",
                "reload every written shard and check each artifact "
                "re-serializes byte-identically to its JSON source");

  args.set_version(tools::version_line("hpcem_compact"));
  if (!args.parse(argc, argv)) return tools::parse_exit(args);
  if (args.get("store").empty()) {
    return tools::usage_error(args, "--store is required");
  }
  if (args.get("out").empty()) {
    return tools::usage_error(args, "--out is required");
  }
  if (args.get_int("shards") < 1) {
    return tools::usage_error(args, "--shards must be >= 1");
  }

  return tools::tool_main([&] {
    const obs::ObsSession session("hpcem_compact");
    const auto shard_count = static_cast<std::size_t>(args.get_int("shards"));

    std::vector<LoadedArtifact> inputs = load_store(args.get("store"));
    if (inputs.empty()) {
      std::cerr << "error: no *.artifact.json files in " << args.get("store")
                << '\n';
      return tools::kExitFailure;
    }
    // Duplicate scenario ids would collide inside one shard (the serve
    // tier would reject them anyway); fail early naming both files.
    std::map<std::string, std::string> first_path;
    for (const LoadedArtifact& la : inputs) {
      const auto [it, inserted] =
          first_path.emplace(la.artifact.scenario, la.path);
      if (!inserted) {
        std::cerr << "error: duplicate scenario id '" << la.artifact.scenario
                  << "' (first: " << it->second << ", again: " << la.path
                  << ")\n";
        return tools::kExitUsage;
      }
    }

    // Assignment: the ring maps scenario id -> shard; sorting inputs by
    // path above plus re-sorting each shard by scenario id below makes
    // the shard bytes independent of filesystem enumeration order.
    const colstore::HashRing ring(shard_count);
    std::vector<std::vector<const LoadedArtifact*>> by_shard(shard_count);
    for (const LoadedArtifact& la : inputs) {
      by_shard[ring.shard_of(la.artifact.scenario)].push_back(&la);
    }
    for (auto& members : by_shard) {
      std::sort(members.begin(), members.end(),
                [](const LoadedArtifact* a, const LoadedArtifact* b) {
                  return a->artifact.scenario < b->artifact.scenario;
                });
    }

    const std::filesystem::path out_dir(args.get("out"));
    std::filesystem::create_directories(out_dir);

    colstore::ShardManifest manifest;
    manifest.format_version = colstore::kFormatVersion;
    manifest.shard_count = shard_count;
    manifest.vnodes_per_shard = ring.vnodes_per_shard();
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      std::vector<RunArtifact> artifacts;
      artifacts.reserve(by_shard[shard].size());
      colstore::ManifestShard ms;
      ms.file = shard_file_name(shard);
      for (const LoadedArtifact* la : by_shard[shard]) {
        artifacts.push_back(la->artifact);
        ms.scenarios.push_back(la->artifact.scenario);
      }
      const std::string bytes = colstore::write_shard_bytes(artifacts);
      const std::string path = (out_dir / ms.file).string();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
      if (!out) throw ParseError("hpcem_compact: cannot write " + path);
      ms.bytes = bytes.size();
      {
        std::ostringstream hex;
        hex << std::hex << colstore::fnv1a64(bytes);
        ms.checksum_fnv1a64 = hex.str();
      }
      std::cout << "shard written: " << path << " ("
                << ms.scenarios.size() << " scenarios, " << ms.bytes
                << " bytes)\n";
      manifest.shards.push_back(std::move(ms));
    }
    std::cout << "manifest written: "
              << colstore::write_manifest(manifest, out_dir.string()) << '\n';

    if (args.get_flag("verify")) {
      std::map<std::string, const LoadedArtifact*> by_name;
      for (const LoadedArtifact& la : inputs) {
        by_name.emplace(la.artifact.scenario, &la);
      }
      std::size_t verified = 0;
      for (const colstore::ManifestShard& ms : manifest.shards) {
        const std::string path = (out_dir / ms.file).string();
        for (const RunArtifact& back :
             colstore::read_artifacts_file(path)) {
          const LoadedArtifact* src = by_name.at(back.scenario);
          if (back.to_json_text() != src->artifact.to_json_text()) {
            std::cerr << "error: verify failed: scenario '" << back.scenario
                      << "' in " << path
                      << " does not round-trip to its JSON source ("
                      << src->path << ")\n";
            return tools::kExitFailure;
          }
          ++verified;
        }
      }
      std::cout << "verify ok: " << verified
                << " scenarios round-trip byte-identically\n";
    }
    return tools::kExitOk;
  });
}
