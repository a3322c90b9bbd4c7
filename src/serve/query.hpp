// Typed query requests and the engine that answers them from a
// MultiStore of frozen ArtifactStores (see docs/SERVE_SCHEMA.md for the
// wire format).
//
// A request arrives as one JSON object; `QueryRequest::from_json` validates
// it into a typed value and `canonical_key()` re-serializes it into the one
// canonical compact rendering (fixed member order, normalized numbers,
// defaults resolved) that keys the result cache and the coalescing map —
// two spellings of the same question must share one cache entry.
//
// Five operations:
//   list             — inventory of stored scenarios and channels;
//   window_aggregate — count/mean/min/max/energy of a channel over a time
//                      window (binary-searched columns; no window answers
//                      from the whole-run streaming aggregates);
//   regimes          — exact time-in-regime split of a carbon-intensity
//                      curve over a period (paper §2: <30 embodied-
//                      dominated, 30..100 balanced, >100 operational);
//   compare          — perf-per-kWh between two scenarios (completed jobs
//                      per kWh, the efficiency currency of §2);
//   whatif           — re-price a stored energy series against a different
//                      carbon-intensity curve and scope-3 amortisation
//                      without re-simulating.
//
// Every answer is a pure function of (store, request) and serializes via
// the deterministic JSON layer, so responses are byte-identical however
// many workers the front runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/assembly.hpp"
#include "core/emissions.hpp"
#include "serve/artifact_store.hpp"
#include "serve/multi_store.hpp"
#include "util/json.hpp"

namespace hpcem::serve {

/// One parsed, validated query.  kStats and kTrace are serve-front admin
/// commands (live telemetry exposition, docs/SERVE_SCHEMA.md): the front
/// answers them itself, never caches them, and the engine rejects them.
struct QueryRequest {
  enum class Op {
    kList,
    kWindowAggregate,
    kRegimes,
    kCompare,
    kWhatIf,
    kStats,
    kTrace
  };

  Op op = Op::kList;
  /// Optional client tag, echoed verbatim in the response.  Part of the
  /// canonical key: responses must be byte-reproducible per request line.
  std::string id;
  std::string scenario;    ///< window_aggregate / regimes / whatif
  std::string channel;     ///< window_aggregate / whatif
  std::string scenario_a;  ///< compare
  std::string scenario_b;  ///< compare
  /// Window; absent = the scenario's artifact window.
  std::optional<SimTime> start;
  std::optional<SimTime> end;
  /// regimes / whatif: the spec grammar's `grid` and `scope3` sections
  /// (core/spec_io.hpp), under either spelling.
  std::optional<GridIntensitySeries> intensity;
  std::optional<EmbodiedParams> embodied;
  std::uint64_t trace_request = 0;          ///< trace: the request id asked for

  /// Parse and validate one request object.  Throws ParseError on a
  /// malformed or incomplete request.
  [[nodiscard]] static QueryRequest from_json(const JsonValue& v);
  [[nodiscard]] static QueryRequest from_json_text(std::string_view text);

  /// Canonical compact JSON: fixed member order, resolved times as epoch
  /// numbers, no optional members that equal their defaults.
  [[nodiscard]] JsonValue to_canonical_json() const;
  /// The cache / coalescing key: `to_canonical_json().dump(0)`.
  [[nodiscard]] std::string canonical_key() const;

  [[nodiscard]] static std::string op_name(Op op);
};

/// Answers queries from frozen stores routed through a MultiStore (one
/// shard or many — the engine cannot tell the difference, which is the
/// point).  Stateless beyond the store routing table; safe to share across
/// worker threads.
class QueryEngine {
 public:
  /// Attached (non-owning) shards must outlive the engine; adopted shards
  /// are kept alive by the copied routing table.
  explicit QueryEngine(MultiStore stores) : stores_(std::move(stores)) {}

  /// Evaluate a validated request.  Throws hpcem::Error subclasses for
  /// domain failures (unknown scenario or channel, too few samples, ...).
  [[nodiscard]] JsonValue evaluate(const QueryRequest& request) const;

  /// Full wire-level handling of one NDJSON request line: parse, evaluate
  /// and wrap into `{"ok":true,...}` / `{"ok":false,"error":...}`.  Never
  /// throws — every failure becomes a deterministic error response.
  [[nodiscard]] std::string handle_line(const std::string& line) const;

  [[nodiscard]] const MultiStore& stores() const { return stores_; }

 private:
  [[nodiscard]] JsonValue list() const;
  [[nodiscard]] JsonValue window_aggregate(const QueryRequest& r) const;
  [[nodiscard]] JsonValue regimes(const QueryRequest& r) const;
  [[nodiscard]] JsonValue compare(const QueryRequest& r) const;
  [[nodiscard]] JsonValue whatif(const QueryRequest& r) const;

  MultiStore stores_;
};

/// Wrap an evaluated result / error into the response envelope and render
/// it as the canonical single-line response (no trailing newline).
[[nodiscard]] std::string render_response(const QueryRequest& request,
                                          const JsonValue& result);
[[nodiscard]] std::string render_error(const std::string& id,
                                       const std::string& message);

}  // namespace hpcem::serve
