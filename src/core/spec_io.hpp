// Declarative JSON scenario-spec format: the data-file face of
// `ScenarioSpec` (see docs/SCENARIO_SCHEMA.md for the field reference).
//
// A scenario file is a strict, versioned JSON document (comments allowed)
// that fully describes one simulated campaign — machine, measurement
// window, operating policy and rollouts, scheduler discipline, simulator
// overrides, plant extras, and the grid-intensity / scope-3 context used
// by the emissions pricing layers.  `scenario_from_json` validates every
// member (unknown keys, wrong types and out-of-range values are rejected
// with a one-line `spec: $.path: ...` error) and `scenario_to_json`
// renders the canonical form; the two are exact inverses:
//
//   scenario_from_json(scenario_to_json(s)) == s          (struct identity)
//   save_scenario(parse_scenario(text)) is a fixed point   (text identity)
//
// Campaigns reference many specs through a *manifest* document, consumed
// by `hpcem_sim --campaign` and `load_campaign_manifest` below.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/assembly.hpp"
#include "core/campaign.hpp"
#include "util/json.hpp"

namespace hpcem {

/// Version written by `scenario_to_json` and accepted by
/// `scenario_from_json`.
inline constexpr int kScenarioSpecVersion = 1;

/// Canonical JSON document for a spec: fixed member order, named policies
/// collapsed to their names, times rendered as ISO date-times when exact
/// (epoch seconds otherwise), optional sections omitted at their defaults.
[[nodiscard]] JsonValue scenario_to_json(const ScenarioSpec& spec);

/// `scenario_to_json(...).dump(2)`: the canonical on-disk rendering.
[[nodiscard]] std::string save_scenario(const ScenarioSpec& spec);

/// Parse and validate one spec document.  Throws ParseError with a
/// one-line `spec: $.path: ...` message on any schema violation.
[[nodiscard]] ScenarioSpec scenario_from_json(const JsonValue& v);

/// Parse spec text (// and /* */ comments allowed) and validate.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);

/// Load and validate a spec file.  Errors name the file:
/// `spec: <path>: $.seed: ...`.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

/// One of the three service policies by its paper name (baseline |
/// perfdet | lowfreq), the names a spec's `policy` string takes; nullopt
/// for any other name.
[[nodiscard]] std::optional<OperatingPolicy> policy_from_name(
    std::string_view name);

/// The `grid` and `scope3` section codecs: the one grammar for grid
/// intensity and scope-3 inputs, in scenario files and in `hpcem_serve`
/// requests alike.  `path` names where the section sits (`$.grid`,
/// `$.intensity`, ...); a violation throws ParseError
/// `spec: <path>...: why`.  Each `*_to_json` is the canonical rendering
/// its `*_from_json` inverts.
[[nodiscard]] JsonValue grid_to_json(const GridIntensitySeries& g);
[[nodiscard]] GridIntensitySeries grid_from_json(const JsonValue& v,
                                                 const std::string& path);
[[nodiscard]] JsonValue scope3_to_json(const EmbodiedParams& e);
[[nodiscard]] EmbodiedParams scope3_from_json(const JsonValue& v,
                                              const std::string& path);

/// The spec language's emissions-context fragment: the `grid` and
/// `scope3` sections alone.  This is what `hpcem_serve` whatif/regimes
/// requests accept as an inline spec override (`"spec": {...}`), so a
/// serve what-if is phrased in exactly the language of the committed
/// scenario files.
struct SpecOverrides {
  std::optional<GridIntensitySeries> grid;
  std::optional<EmbodiedParams> scope3;
};
[[nodiscard]] SpecOverrides spec_overrides_from_json(const JsonValue& v);

/// A campaign manifest: many spec files plus the runner settings.
/// Spec paths resolve relative to the manifest file's directory.
struct CampaignManifest {
  std::vector<ScenarioSpec> specs;
  /// Resolved spec file paths, parallel to `specs`.
  std::vector<std::string> spec_files;
  CampaignConfig config;
};

/// Version accepted in a manifest's `manifest_version` member.
inline constexpr int kCampaignManifestVersion = 1;

/// Load and validate a manifest and every spec it references.
[[nodiscard]] CampaignManifest load_campaign_manifest(
    const std::string& path);

}  // namespace hpcem
