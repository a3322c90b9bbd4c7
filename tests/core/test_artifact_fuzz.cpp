// Seeded fuzzer for the run-artifact JSON decoder.
//
// Each case mutates the committed ci-smoke artifact in one of eight ways:
// truncation, byte flips, two members swapped, a member duplicated with a
// junk value before or after it, an out-of-range count, a decreasing
// series time, a string inside a numeric series array, or one clock's
// "times" text, respelled and perhaps changed, copied into some channels
// (so the decoder's parse-each-clock-once path and its fallback both
// run).  Every mutant must:
//
//   1. never crash (sanitizers catch the rest under ASan/UBSan);
//   2. if rejected, be rejected with a one-line error;
//   3. if accepted, re-encode to a fixed point;
//   4. get exactly the outcome (bytes, or exception type and message) of a
//      DOM reference decoder written from the schema rules, so the
//      streaming decoder accepts and rejects what a DOM walk would.
//
// Mutations whose effect is known are also checked against it: swaps,
// junk-before duplicates and respelled clocks decode to the pristine
// artifact; bad counts, decreasing times and strings in arrays are
// rejected with their message.
//
// The case count scales with HPCEM_ARTIFACT_FUZZ_CASES (default 50; CI
// runs 200 under ASan/UBSan).  Every case derives from a fixed master
// seed, so a failure reproduces by number.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "core/run_artifact.hpp"
#include "json_surgery.hpp"
#include "obs/metrics_export.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

constexpr std::uint64_t kMasterSeed = 0xA27F0C5EULL;

std::size_t fuzz_cases() {
  if (const char* env = std::getenv("HPCEM_ARTIFACT_FUZZ_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 50;
}

// ---------------------------------------------------------------------------
// Reference decoder: the schema rules applied to a parsed DOM, member by
// member, in the order the artifact documents them.

std::uint64_t ref_count(const JsonValue& v, const std::string& member,
                        const std::string& label) {
  const double x = v.at(member).as_number();
  if (!(x >= 0.0 && x <= 9007199254740992.0 && x == std::floor(x))) {
    throw ParseError("RunArtifact: " + label +
                     " must be a non-negative integer <= 2^53, got " +
                     json_number(x));
  }
  return static_cast<std::uint64_t>(x);
}

SimTime ref_time(const JsonValue& v) {
  return SimTime(v.at("epoch_s").as_number());
}

ChannelAggregate ref_channel(const JsonValue& v) {
  ChannelAggregate c;
  c.name = v.at("name").as_string();
  c.unit = v.at("unit").as_string();
  c.samples = ref_count(v, "samples", "channel '" + c.name + "' samples");
  c.mean = v.at("mean").as_number();
  c.min = v.at("min").as_number();
  c.max = v.at("max").as_number();
  c.integral = v.at("integral").as_number();
  c.first_time = ref_time(v.at("first_time"));
  c.last_time = ref_time(v.at("last_time"));
  if (const JsonValue* series = v.get("series")) {
    const auto& times = series->at("times").as_array();
    const auto& values = series->at("values").as_array();
    require(times.size() == values.size(), "RunArtifact: channel '", c.name,
            "' series times/values length mismatch");
    for (std::size_t i = 0; i < times.size(); ++i) {
      const SimTime t(times[i].as_number());
      require(i == 0 || t >= c.series.back().time, "RunArtifact: channel '",
              c.name, "' series times must be non-decreasing");
      c.series.push_back({t, values[i].as_number()});
    }
  }
  return c;
}

RunArtifact ref_decode(const std::string& text) {
  const JsonValue v = JsonValue::parse(text);
  require(v.at("schema").as_string() == "hpcem.run_artifact",
          "RunArtifact: not a run-artifact document");
  const std::uint64_t version =
      ref_count(v, "schema_version", "schema_version");
  require(version >= 3, "RunArtifact: schema version ", version,
          " predates v3; re-export with --serve-export");
  require(version == 3, "RunArtifact: unsupported schema version ", version);
  RunArtifact a;
  a.scenario = v.at("scenario").as_string();
  a.source = v.at("source").as_string();
  a.machine = v.at("machine").as_string();
  a.window_start = ref_time(v.at("window_start"));
  a.window_end = ref_time(v.at("window_end"));
  a.replicates = ref_count(v, "replicates", "replicates");
  const JsonValue& h = v.at("headline");
  a.headline = {PowerKw{h.at("mean_kw").as_number()},
                PowerKw{h.at("mean_before_kw").as_number()},
                PowerKw{h.at("mean_after_kw").as_number()},
                h.at("mean_utilisation").as_number(),
                EnergyKwh{h.at("window_energy_kwh").as_number()},
                h.at("completed_jobs").as_number()};
  for (const auto& cp : v.at("change_points").as_array()) {
    a.change_points.push_back({ref_time(cp.at("at")),
                               PowerKw{cp.at("mean_before_kw").as_number()},
                               PowerKw{cp.at("mean_after_kw").as_number()},
                               cp.at("detected").as_bool()});
  }
  for (const auto& c : v.at("channels").as_array()) {
    a.channels.push_back(ref_channel(c));
  }
  if (const JsonValue* o = v.get("obs")) {
    (void)obs::metrics_from_json(*o);
    a.obs = *o;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Outcomes

struct Outcome {
  bool accepted = false;
  /// The re-encoded bytes, or "<exception type>: <message>".
  std::string text;
};

template <typename Decode>
Outcome outcome_of(const std::string& text, Decode decode) {
  try {
    return {true, decode(text).to_json_text()};
  } catch (const ParseError& e) {
    return {false, std::string("ParseError: ") + e.what()};
  } catch (const InvalidArgument& e) {
    return {false, std::string("InvalidArgument: ") + e.what()};
  } catch (const Error& e) {
    return {false, std::string("Error: ") + e.what()};
  }
}

// ---------------------------------------------------------------------------
// Mutations

/// A change to one object of the document, applied while writing it.
struct Twist {
  enum class Kind { kSwap, kDuplicateBefore, kDuplicateAfter };
  const JsonValue* target = nullptr;
  Kind kind = Kind::kSwap;
  std::size_t a = 0;  ///< member index (swapped with b, or duplicated)
  std::size_t b = 0;
  JsonValue junk;
};

void write_twisted(JsonWriter& w, const JsonValue& v, const Twist& t) {
  if (v.is_array()) {
    w.begin_array();
    for (const JsonValue& e : v.as_array()) write_twisted(w, e, t);
    w.end_array();
    return;
  }
  if (!v.is_object()) {
    w.value(v);
    return;
  }
  const JsonValue::Object& members = v.as_object();
  const bool here = &v == t.target;
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (here && t.kind == Twist::Kind::kSwap) std::swap(order[t.a], order[t.b]);
  w.begin_object();
  for (const std::size_t i : order) {
    const auto& [key, member] = members[i];
    const bool dup = here && t.kind != Twist::Kind::kSwap && i == t.a;
    if (dup && t.kind == Twist::Kind::kDuplicateBefore) {
      w.key(key);
      w.value(t.junk);
    }
    w.key(key);
    write_twisted(w, member, t);
    if (dup && t.kind == Twist::Kind::kDuplicateAfter) {
      w.key(key);
      w.value(t.junk);
    }
  }
  w.end_object();
}

void collect_objects(const JsonValue& v, std::vector<const JsonValue*>& out) {
  if (v.is_object()) {
    out.push_back(&v);
    for (const auto& [k, m] : v.as_object()) collect_objects(m, out);
  } else if (v.is_array()) {
    for (const JsonValue& e : v.as_array()) collect_objects(e, out);
  }
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

JsonValue junk_value(Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return JsonValue("junk");
    case 1: return JsonValue(7);
    case 2: return JsonValue(-1.5);
    case 3: return JsonValue();
    case 4: return JsonValue::array();
    case 5: return JsonValue::object();
    default: return JsonValue(true);
  }
}

/// A mutant and what is known about its outcome.
struct Mutant {
  std::string text;
  /// Must decode to the pristine artifact's bytes.
  bool same_as_pristine = false;
  /// Non-empty: must be rejected with exactly this outcome text.
  std::string rejected_with;
};

class ArtifactFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto text = read_text_file(HPCEM_CI_ARTIFACT);
    ASSERT_TRUE(text.has_value());
    pristine_ = *text;
    doc_ = JsonValue::parse(pristine_);
    collect_objects(doc_, objects_);
    const auto& channels = doc_.at("channels").as_array();
    for (std::size_t c = 0; c < channels.size(); ++c) {
      if (const JsonValue* s = channels[c].get("series")) {
        if (s->at("times").as_array().size() >= 2) {
          series_channels_.push_back(c);
        }
      }
    }
    ASSERT_FALSE(series_channels_.empty());
  }

  Mutant mutate(Rng& rng) const {
    Mutant m;
    switch (rng.uniform_int(0, 7)) {
      case 0: {  // truncation
        m.text = pristine_.substr(0, pick(rng, pristine_.size()));
        break;
      }
      case 1: {  // byte flips
        m.text = pristine_;
        const std::int64_t flips = rng.uniform_int(1, 8);
        for (std::int64_t i = 0; i < flips; ++i) {
          char& c = m.text[pick(rng, m.text.size())];
          c = static_cast<char>(c ^ static_cast<char>(rng.uniform_int(1, 255)));
        }
        break;
      }
      case 2:    // swapped members or a duplicated member
      case 3: {
        Twist t;
        t.target = objects_[pick(rng, objects_.size())];
        const std::size_t n = t.target->as_object().size();
        t.a = pick(rng, n);
        t.b = pick(rng, n);
        if (rng.bernoulli(0.5)) {
          t.kind = Twist::Kind::kSwap;
          m.same_as_pristine = true;
        } else {
          t.kind = rng.bernoulli(0.5) ? Twist::Kind::kDuplicateBefore
                                      : Twist::Kind::kDuplicateAfter;
          t.junk = junk_value(rng);
          m.same_as_pristine = t.kind == Twist::Kind::kDuplicateBefore;
        }
        JsonWriter w(static_cast<int>(rng.uniform_int(0, 3)));
        write_twisted(w, doc_, t);
        m.text = std::move(w).finish();
        break;
      }
      case 4: {  // out-of-range count
        const double bad[] = {-1.0, 1e300, 0.5, 9007199254740994.0, -2.5,
                              1e19};
        const double x = bad[pick(rng, std::size(bad))];
        const std::size_t channels = doc_.at("channels").as_array().size();
        const std::size_t field = pick(rng, 2 + channels);
        std::vector<std::string> path;
        std::string label;
        if (field == 0) {
          path = {"schema_version"};
          label = "schema_version";
        } else if (field == 1) {
          path = {"replicates"};
          label = "replicates";
        } else {
          const std::size_t c = field - 2;
          path = {"channels", std::to_string(c), "samples"};
          label = "channel '" +
                  doc_.at("channels").as_array()[c].at("name").as_string() +
                  "' samples";
        }
        m.text = test::edited(doc_, path, JsonValue(x)).dump(2);
        m.rejected_with = "ParseError: RunArtifact: " + label +
                          " must be a non-negative integer <= 2^53, got " +
                          json_number(x);
        break;
      }
      case 5: {  // decreasing series time
        const std::size_t c =
            series_channels_[pick(rng, series_channels_.size())];
        const JsonValue& channel = doc_.at("channels").as_array()[c];
        const auto& times = channel.at("series").at("times").as_array();
        const std::size_t i = 1 + pick(rng, times.size() - 1);
        const double t = times[i - 1].as_number() - rng.uniform(0.5, 3600.0);
        m.text = test::edited(doc_,
                              {"channels", std::to_string(c), "series",
                               "times", std::to_string(i)},
                              JsonValue(t))
                     .dump(2);
        m.rejected_with = "InvalidArgument: RunArtifact: channel '" +
                          channel.at("name").as_string() +
                          "' series times must be non-decreasing";
        break;
      }
      case 6: {  // one clock's text in some channels
        m = copied_clock(rng);
        break;
      }
      default: {  // a string inside a numeric array
        const std::size_t c =
            series_channels_[pick(rng, series_channels_.size())];
        const char* column = rng.bernoulli(0.5) ? "times" : "values";
        const std::size_t n = doc_.at("channels")
                                  .as_array()[c]
                                  .at("series")
                                  .at(column)
                                  .as_array()
                                  .size();
        const char* strings[] = {"x", "", "1.5", "NaN"};
        m.text = test::edited(doc_,
                              {"channels", std::to_string(c), "series", column,
                               std::to_string(pick(rng, n))},
                              JsonValue(strings[pick(rng, 4)]))
                     .dump(2);
        m.rejected_with = "ParseError: JsonValue: not a number";
        break;
      }
    }
    return m;
  }

  /// The first series channel's clock, spelled anew and perhaps changed
  /// at one element, as the "times" text of a random non-empty subset of
  /// the series channels that share that clock.  Text repeated
  /// byte-for-byte is what the decoder parses once.
  Mutant copied_clock(Rng& rng) const {
    Mutant m;
    const auto& channels = doc_.at("channels").as_array();
    const JsonValue& clock =
        channels[series_channels_.front()].at("series").at("times");
    std::vector<std::size_t> targets;
    for (const std::size_t c : series_channels_) {
      if (channels[c].at("series").at("times").dump(0) == clock.dump(0) &&
          rng.bernoulli(0.5)) {
        targets.push_back(c);
      }
    }
    if (targets.empty()) targets.push_back(series_channels_.front());

    const auto& times = clock.as_array();
    const std::size_t at = 1 + pick(rng, times.size() - 1);
    const std::int64_t change = rng.uniform_int(0, 3);
    const char* separators[] = {",", ", ", ",\n      ", " ,\t"};
    const std::string sep = separators[pick(rng, std::size(separators))];
    std::string text = rng.bernoulli(0.5) ? "[" : "[\n  ";
    for (std::size_t i = 0; i < times.size(); ++i) {
      double t = times[i].as_number();
      if (i > 0) text += sep;
      if (i == at && change == 1) {  // still non-decreasing
        t = (times[i - 1].as_number() + t) / 2.0;
      } else if (i == at && change == 2) {
        t = times[i - 1].as_number() - 1.0;
      } else if (i == at && change == 3) {
        text += "\"x\"";
        continue;
      }
      if (rng.bernoulli(0.5)) {
        text += json_number(t);
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17e", t);
        text += buf;
      }
    }
    text += rng.bernoulli(0.5) ? "]" : "\n]";

    const std::string placeholder = "@clock@";
    JsonValue doc = doc_;
    for (const std::size_t c : targets) {
      doc = test::edited(doc, {"channels", std::to_string(c), "series", "times"},
                         JsonValue(placeholder));
    }
    m.text = doc.dump(static_cast<int>(rng.uniform_int(0, 3)));
    const std::string quoted = json_quote(placeholder);
    for (std::size_t p = m.text.find(quoted); p != std::string::npos;
         p = m.text.find(quoted, p + text.size())) {
      m.text.replace(p, quoted.size(), text);
    }
    if (change == 0) m.same_as_pristine = true;
    if (change == 2) {
      m.rejected_with = "InvalidArgument: RunArtifact: channel '" +
                        channels[targets.front()].at("name").as_string() +
                        "' series times must be non-decreasing";
    }
    if (change == 3) m.rejected_with = "ParseError: JsonValue: not a number";
    return m;
  }

  std::string pristine_;
  JsonValue doc_;
  std::vector<const JsonValue*> objects_;
  std::vector<std::size_t> series_channels_;
};

TEST_F(ArtifactFuzz, MutantsMatchTheReferenceAndNeverCrash) {
  const std::size_t cases = fuzz_cases();
  std::size_t rejected = 0;
  for (std::size_t case_i = 0; case_i < cases; ++case_i) {
    SCOPED_TRACE("case " + std::to_string(case_i));
    Rng rng(kMasterSeed + case_i * 0x9E3779B97F4A7C15ULL);
    const Mutant m = mutate(rng);
    const Outcome got = outcome_of(m.text, RunArtifact::from_json_text);
    const Outcome want = outcome_of(m.text, ref_decode);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.text, want.text);
    if (got.accepted) {
      // Fixed point: the re-encoding decodes and re-encodes to itself.
      EXPECT_EQ(RunArtifact::from_json_text(got.text).to_json_text(),
                got.text);
    } else {
      ++rejected;
      EXPECT_EQ(got.text.find('\n'), std::string::npos) << got.text;
      EXPECT_GT(got.text.size(), std::string("ParseError: ").size());
    }
    if (m.same_as_pristine) {
      EXPECT_TRUE(got.accepted) << got.text;
      EXPECT_EQ(got.text, pristine_);
    }
    if (!m.rejected_with.empty()) {
      EXPECT_FALSE(got.accepted);
      EXPECT_EQ(got.text, m.rejected_with);
    }
  }
  // The fuzzer is exercising the reject paths, not only the accept paths.
  EXPECT_GT(rejected, cases / 4);
}

}  // namespace
}  // namespace hpcem
