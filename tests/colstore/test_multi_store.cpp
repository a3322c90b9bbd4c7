// MultiStore: the sharded serve tier must be invisible on the wire.
// Splitting a scenario set across any shard count (ring-faithful or
// arbitrary) yields byte-identical ServeFront responses to the one-shard
// deployment, whether the stores were loaded from JSON files or HCAF
// shards; duplicate ids are rejected at attach; the admin stats response
// grows a per-shard section.
#include "serve/multi_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "colstore/hcaf.hpp"
#include "colstore/shard.hpp"
#include "serve/front.hpp"
#include "telemetry/timeseries.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hpcem::serve {
namespace {

RunArtifact make_artifact(const std::string& scenario, std::size_t samples) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  a.machine = "archer2";
  TimeSeries s("kW");
  for (std::size_t i = 0; i < samples; ++i) {
    s.append(SimTime(static_cast<double>(i) * 3600.0),
             3000.0 + 250.0 * static_cast<double>((i % 24) >= 8));
  }
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = s.summary().mean;
  a.headline.window_energy_kwh = s.integrate() / 3600.0;
  a.headline.completed_jobs = 420.0;
  a.channels.push_back(aggregate_channel("cabinet_kw", s, true));
  return a;
}

std::vector<std::string> scenario_set() {
  return {"baseline", "rollout", "low-freq", "turbo", "capped", "weekend"};
}

std::vector<std::string> request_mix() {
  std::vector<std::string> lines = {R"({"op":"list"})"};
  for (const std::string& s : scenario_set()) {
    lines.push_back(R"({"op":"window_aggregate","scenario":")" + s +
                    R"(","channel":"cabinet_kw"})");
    lines.push_back(R"({"op":"window_aggregate","scenario":")" + s +
                    R"(","channel":"cabinet_kw","start":86400,)"
                    R"("end":432000})");
    lines.push_back(R"({"op":"whatif","scenario":")" + s +
                    R"(","channel":"cabinet_kw",)"
                    R"("intensity":{"constant_g_per_kwh":80}})");
  }
  lines.push_back(R"({"op":"compare","a":"baseline","b":"rollout"})");
  lines.push_back(R"({"op":"compare","a":"baseline","b":"missing"})");
  lines.push_back(R"({"op":"window_aggregate","scenario":"absent",)"
                  R"("channel":"cabinet_kw"})");
  return lines;
}

/// Responses for the whole mix with the cache off (so every line hits the
/// engine and the store routing underneath).
std::vector<std::string> answers(ServeFront& front) {
  std::vector<std::string> out;
  for (const std::string& line : request_mix()) out.push_back(front.handle(line));
  return out;
}

/// The one-shard deployment over `store` (which must outlive it).
MultiStore one_shard(const ArtifactStore& store) {
  MultiStore multi;
  multi.attach(store);
  return multi;
}

ServeOptions cacheless() {
  ServeOptions o;
  o.cache_entries = 0;
  return o;
}

/// Split the scenario set into `shard_count` owned stores along the same
/// ring the compactor would use.
MultiStore ring_split(std::size_t shard_count) {
  const colstore::HashRing ring(shard_count);
  std::vector<std::shared_ptr<ArtifactStore>> stores(shard_count);
  for (auto& s : stores) s = std::make_shared<ArtifactStore>();
  for (const std::string& name : scenario_set()) {
    stores[ring.shard_of(name)]->add(make_artifact(name, 240));
  }
  MultiStore multi;
  for (auto& s : stores) multi.adopt(s);
  return multi;
}

TEST(MultiStore, AnyShardCountAnswersByteIdenticallyToOneStore) {
  ArtifactStore single;
  for (const std::string& name : scenario_set()) {
    single.add(make_artifact(name, 240));
  }
  ServeFront reference(one_shard(single), cacheless());
  const std::vector<std::string> expected = answers(reference);

  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{6}}) {
    ServeFront front(ring_split(shard_count), cacheless());
    const std::vector<std::string> got = answers(front);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i])
          << shard_count << " shards, request: " << request_mix()[i];
    }
  }
}

TEST(MultiStore, RingOffLayoutsStillRouteCorrectly) {
  // A hand-assembled split that ignores the ring entirely: the fallback
  // probe must keep every lookup correct (the ring is a fast path, not a
  // correctness dependency).
  ArtifactStore single;
  for (const std::string& name : scenario_set()) {
    single.add(make_artifact(name, 240));
  }
  ServeFront reference(one_shard(single), cacheless());
  const std::vector<std::string> expected = answers(reference);

  auto a = std::make_shared<ArtifactStore>();
  auto b = std::make_shared<ArtifactStore>();
  const std::vector<std::string> names = scenario_set();
  for (std::size_t i = 0; i < names.size(); ++i) {
    (i % 2 == 0 ? a : b)->add(make_artifact(names[i], 240));
  }
  MultiStore multi;
  multi.adopt(a);
  multi.adopt(b);
  ServeFront front(std::move(multi), cacheless());
  const std::vector<std::string> got = answers(front);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << request_mix()[i];
  }
}

TEST(MultiStore, ListsTheMergedScenarioSetInLexicographicOrder) {
  const MultiStore multi = ring_split(3);
  EXPECT_EQ(multi.scenario_count(), scenario_set().size());
  std::vector<std::string> sorted = scenario_set();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(multi.scenario_names(), sorted);
}

TEST(MultiStore, RejectsAScenarioPresentInTwoShards) {
  ArtifactStore a;
  a.add(make_artifact("dup", 24));
  ArtifactStore b;
  b.add(make_artifact("dup", 24));
  MultiStore multi;
  multi.attach(a);
  EXPECT_THROW(multi.attach(b), DuplicateScenarioError);
  // The failed attach leaves the collection unchanged.
  EXPECT_EQ(multi.shard_count(), 1u);
  EXPECT_EQ(multi.scenario_count(), 1u);
}

TEST(MultiStore, UnknownScenarioErrorMatchesTheSingleStoreText) {
  const MultiStore multi = ring_split(2);
  EXPECT_EQ(multi.find("absent"), nullptr);
  try {
    (void)multi.at("absent");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    // Wire-level error parity with ArtifactStore::at.
    EXPECT_STREQ(e.what(), "ArtifactStore: unknown scenario 'absent'");
  }
}

TEST(MultiStore, JsonAndHcafIngestAnswerByteIdentically) {
  // The same scenario set loaded from JSON artifact files and from one
  // HCAF shard: both take the one shard ingest path, so every answer —
  // and every answer of a deployment mixing the two — is the same bytes.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hpcem_multi_store_test";
  fs::remove_all(dir);
  fs::create_directories(dir / "json");
  std::vector<RunArtifact> artifacts;
  for (const std::string& name : scenario_set()) {
    artifacts.push_back(make_artifact(name, 240));
    (void)write_artifact_files(artifacts.back(),
                               (dir / "json" / name).string());
  }
  const std::string shard = (dir / "all.hcaf").string();
  colstore::write_shard_file(artifacts, shard);

  ArtifactStore from_json;
  EXPECT_EQ(from_json.load_directory((dir / "json").string()),
            artifacts.size());
  ArtifactStore from_hcaf;
  EXPECT_EQ(from_hcaf.load_hcaf_file(shard), artifacts.size());
  ServeFront json_front(one_shard(from_json), cacheless());
  ServeFront hcaf_front(one_shard(from_hcaf), cacheless());
  const std::vector<std::string> expected = answers(json_front);
  EXPECT_EQ(answers(hcaf_front), expected);

  // Half the scenarios from JSON, half from HCAF, in one deployment.
  auto json_half = std::make_shared<ArtifactStore>();
  std::vector<RunArtifact> hcaf_half;
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i % 2 == 0) {
      json_half->load_file(
          (dir / "json" / (artifacts[i].scenario + ".artifact.json"))
              .string());
    } else {
      hcaf_half.push_back(artifacts[i]);
    }
  }
  colstore::write_shard_file(hcaf_half, shard);
  auto hcaf_store = std::make_shared<ArtifactStore>();
  (void)hcaf_store->load_hcaf_file(shard);
  MultiStore mixed;
  mixed.adopt(hcaf_store);
  mixed.adopt(json_half);
  ServeFront mixed_front(std::move(mixed), cacheless());
  EXPECT_EQ(answers(mixed_front), expected);
  fs::remove_all(dir);
}

TEST(MultiStore, StatsResponseCarriesThePerShardSection) {
  ServeFront front(ring_split(3), cacheless());
  const std::string response = front.handle(R"({"op":"stats"})");
  const JsonValue v = JsonValue::parse(response);
  const JsonValue& store = v.at("result").at("store");
  EXPECT_DOUBLE_EQ(store.at("scenarios").as_number(), 6.0);
  EXPECT_DOUBLE_EQ(store.at("shard_count").as_number(), 3.0);
  const auto& shards = store.at("shards").as_array();
  ASSERT_EQ(shards.size(), 3u);
  double total = 0.0;
  double samples = 0.0;
  for (const JsonValue& shard : shards) {
    // The ring may leave a shard empty at this scale.
    total += shard.at("scenarios").as_number();
    samples += shard.at("series_samples").as_number();
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
  EXPECT_DOUBLE_EQ(samples, store.at("series_samples").as_number());
}

}  // namespace
}  // namespace hpcem::serve
