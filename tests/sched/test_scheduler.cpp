// Tests for the FIFO + EASY backfill scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/allocator.hpp"
#include "sched/id_set.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

JobSpec job(JobId id, std::size_t nodes, double walltime_h,
            SimTime submit = SimTime(0.0)) {
  JobSpec j;
  j.id = id;
  j.nodes = nodes;
  j.requested_walltime = Duration::hours(walltime_h);
  j.ref_runtime = Duration::hours(walltime_h / 2.0);
  j.submit_time = submit;
  return j;
}

TEST(Scheduler, StartsJobsInFifoOrderWhenTheyFit) {
  Scheduler s({100, 200});
  s.submit(job(1, 40, 1.0));
  s.submit(job(2, 40, 1.0));
  s.submit(job(3, 40, 1.0));
  const auto starts = s.schedule_pass(SimTime(0.0));
  ASSERT_EQ(starts.size(), 2u);  // 40 + 40 fit; the third must wait
  EXPECT_EQ(starts[0].job.id, 1u);
  EXPECT_EQ(starts[1].job.id, 2u);
  EXPECT_EQ(s.queue_length(), 1u);
  EXPECT_EQ(s.busy_nodes(), 80u);
  EXPECT_EQ(s.free_nodes(), 20u);
}

TEST(Scheduler, FinishFreesNodesAndNextPassStartsQueued) {
  Scheduler s({100, 200});
  s.submit(job(1, 80, 1.0));
  s.submit(job(2, 60, 1.0));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.finish(1, SimTime(3600.0));
  EXPECT_EQ(s.free_nodes(), 100u);
  const auto starts = s.schedule_pass(SimTime(3600.0));
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].job.id, 2u);
  EXPECT_EQ(s.finished_total(), 1u);
  EXPECT_EQ(s.started_total(), 2u);
}

TEST(Scheduler, BackfillShortJobJumpsWideHead) {
  Scheduler s({100, 200});
  s.submit(job(1, 100, 2.0));             // running, ends at t=2h
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 100, 2.0));             // head: needs the whole machine
  s.finish(1, SimTime(0.0));              // free it all again
  s.submit(job(3, 100, 2.0));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);  // job 2 starts
  // Now job 3 heads the queue needing 100 nodes at t=2h (shadow).
  // A 10-node 1-hour job finishes before the shadow: backfillable.
  s.submit(job(4, 10, 1.0));
  // Wait: job 2 holds all 100 nodes, so nothing fits now at all.
  EXPECT_TRUE(s.schedule_pass(SimTime(0.0)).empty());
  s.finish(2, SimTime(1800.0));
  // 100 free; head (job 3) starts, then job 4 backfills? Job 3 takes all
  // nodes, so job 4 waits again.
  const auto starts = s.schedule_pass(SimTime(1800.0));
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].job.id, 3u);
}

TEST(Scheduler, BackfillRunsWhenHeadWaits) {
  Scheduler s({100, 200});
  s.submit(job(1, 60, 4.0));  // runs until t=4h
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 60, 2.0));  // head: waits for job 1 (shadow t=4h)
  s.submit(job(3, 30, 3.0));  // fits now (40 free), ends 3h < 4h: backfill
  const auto starts = s.schedule_pass(SimTime(0.0));
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].job.id, 3u);
  EXPECT_EQ(s.busy_nodes(), 90u);
}

TEST(Scheduler, BackfillMustNotDelayHeadReservation) {
  Scheduler s({100, 200});
  s.submit(job(1, 60, 4.0));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 60, 2.0));  // head: shadow at t=4h, 40 spare at shadow
  // 30-node job lasting 10h: ends after the shadow, but 30 <= 40 spare
  // nodes at shadow time -> allowed.
  s.submit(job(3, 30, 10.0));
  EXPECT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.finish(3, SimTime(100.0));
  // 41-node job lasting 10h: ends after shadow AND exceeds the spare
  // capacity at the shadow -> would delay the head; must not start even
  // though 40 nodes are free... (41 > 40 free anyway). Use a 40-node one:
  // 40 <= free, ends after shadow, spare at shadow is 40 - but head then
  // has exactly 60+40-40... spare = free_at_shadow - head = 100-60=40.
  s.submit(job(4, 40, 10.0));
  const auto starts = s.schedule_pass(SimTime(100.0));
  ASSERT_EQ(starts.size(), 1u);  // 40 <= 40 spare: allowed by EASY
  EXPECT_EQ(starts[0].job.id, 4u);
}

TEST(Scheduler, SetExpectedEndImprovesShadow) {
  Scheduler s({100, 200});
  s.submit(job(1, 100, 24.0));  // pessimistic walltime
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.set_expected_end(1, SimTime(3600.0));  // actually ends in an hour
  s.submit(job(2, 100, 1.0));   // head
  s.submit(job(3, 10, 0.4));    // cannot fit now (0 free)
  EXPECT_TRUE(s.schedule_pass(SimTime(0.0)).empty());
  EXPECT_THROW(s.set_expected_end(99, SimTime(1.0)), StateError);
}

TEST(Scheduler, RejectsOversizedAndInvalidJobs) {
  Scheduler s({100, 200});
  EXPECT_THROW(s.submit(job(1, 101, 1.0)), InvalidArgument);
  EXPECT_THROW(s.submit(job(2, 0, 1.0)), InvalidArgument);
  EXPECT_THROW(s.submit(job(3, 10, 0.0)), InvalidArgument);
}

TEST(Scheduler, FinishUnknownJobThrows) {
  Scheduler s({100, 200});
  EXPECT_THROW(s.finish(42, SimTime(0.0)), StateError);
}

TEST(Scheduler, UtilisationTracksBusyFraction) {
  Scheduler s({200, 200});
  s.submit(job(1, 50, 1.0));
  s.submit(job(2, 100, 1.0));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 2u);
  EXPECT_DOUBLE_EQ(s.utilisation(), 0.75);
}

TEST(Scheduler, RandomChurnInvariants) {
  // Property: node conservation and queue/running bookkeeping hold under
  // random submit/finish interleavings, and the machine stays busy while
  // a backlog exists (work-conservation for 1-node jobs).
  Scheduler s({256, 64});
  Rng rng(5);
  SimTime now(0.0);
  std::vector<JobId> running;
  JobId next = 1;
  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.6)) {
      s.submit(job(next++, static_cast<std::size_t>(rng.uniform_int(1, 64)),
                   rng.uniform(0.5, 8.0), now));
    }
    for (auto& st : s.schedule_pass(now)) running.push_back(st.job.id);
    if (!running.empty() && rng.bernoulli(0.5)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(running.size()) - 1));
      s.finish(running[idx], now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(s.busy_nodes() + s.free_nodes(), 256u);
    ASSERT_EQ(s.running_count(), running.size());
    now += Duration::minutes(7.0);
  }
  EXPECT_EQ(s.started_total(), s.finished_total() + running.size());
}

// Regression pin on a recorded churn trace.  The backfill shadow sweeps a
// running set maintained across passes (an end-sorted buffer filed once per
// retimed start and erased at its front by in-order finishes, merged with
// the pass's own starts); this digest of the exact start sequence was
// recorded from the per-pass rebuild-and-sort implementation, so any
// divergence in ordering or backfill decisions fails here, not just in the
// end-to-end figure goldens.
TEST(Scheduler, RecordedChurnTraceReproducesStartSequence) {
  SchedulerConfig cfg;
  cfg.nodes = 1024;
  Scheduler s(cfg);
  Rng rng(99);
  SimTime now(0.0);
  JobId id = 1;
  std::vector<std::pair<SimTime, JobId>> running;  // (realised end, id)
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  const auto pass = [&] {
    for (auto& st : s.schedule_pass(now)) {
      mix(st.job.id);
      // Realised runtimes undercut the estimate: backfill windows open.
      const SimTime end =
          now + st.job.requested_walltime * (0.3 + 0.6 * rng.uniform());
      s.set_expected_end(st.job.id, end);
      running.emplace_back(end, st.job.id);
    }
  };
  for (int step = 0; step < 600; ++step) {
    // Retire every job whose realised end passed, oldest end first.
    std::sort(running.begin(), running.end());
    while (!running.empty() && running.front().first <= now) {
      s.finish(running.front().second, now);
      running.erase(running.begin());
      pass();
    }
    JobSpec j = job(id, static_cast<std::size_t>(rng.uniform_int(1, 96)),
                    1.0 + 11.0 * rng.uniform(), now);
    ++id;
    s.submit(std::move(j));
    pass();
    now += Duration::minutes(7.0);
  }
  EXPECT_EQ(s.started_total(), 411u);
  EXPECT_EQ(s.passes_total(), 985u);
  EXPECT_EQ(digest, 9698893677361187067ull);
}


// The scheduler decides by node count; a caller that needs node identities
// composes a NodeAllocator, placing each start in the order the pass
// returns them and releasing on finish.  The digest of every job's runs was
// recorded when the scheduler still placed jobs itself (`allocation(id)`,
// the same allocate/release call sequence), on a churn of jobs up to a
// quarter of the machine wide, which fragments the free list.
TEST(Scheduler, ComposedPlacementReproducesRecordedNodeSets) {
  SchedulerConfig cfg;
  cfg.nodes = 1024;
  Scheduler s(cfg);
  NodeAllocator nodes(cfg.nodes);
  std::unordered_map<JobId, std::vector<NodeRun>> placed;
  Rng rng(31);
  SimTime now(0.0);
  JobId id = 1;
  std::vector<std::pair<SimTime, JobId>> running;  // (realised end, id)
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  std::size_t fragmented = 0;
  const auto pass = [&] {
    for (const JobStart& st : s.schedule_pass(now)) {
      auto runs = nodes.allocate(st.job.nodes);
      ASSERT_TRUE(runs.has_value()) << "a count-only start overcommitted";
      mix(st.job.id);
      mix(runs->size());
      for (const NodeRun& r : *runs) {
        mix(r.first);
        mix(r.count);
      }
      if (runs->size() > 1) ++fragmented;
      placed.emplace(st.job.id, std::move(*runs));
      const SimTime end =
          now + st.job.requested_walltime * (0.3 + 0.6 * rng.uniform());
      s.set_expected_end(st.job.id, end);
      running.emplace_back(end, st.job.id);
    }
  };
  for (int step = 0; step < 1500; ++step) {
    std::sort(running.begin(), running.end());
    while (!running.empty() && running.front().first <= now) {
      const JobId done = running.front().second;
      s.finish(done, now);
      nodes.release(placed.at(done));
      placed.erase(done);
      running.erase(running.begin());
      pass();
    }
    s.submit(job(id++, static_cast<std::size_t>(rng.uniform_int(1, 256)),
                 1.0 + 11.0 * rng.uniform(), now));
    pass();
    now += Duration::minutes(5.0);
  }
  EXPECT_EQ(nodes.free_count(), s.free_nodes());
  EXPECT_EQ(s.started_total(), 309u);
  EXPECT_EQ(s.passes_total(), 1801u);
  EXPECT_EQ(fragmented, 231u);
  EXPECT_EQ(digest, 15703050822990742387ull);
}

// The full-scan FIFO pass the scheduler ran before the settled-pass prune:
// every pass re-runs the head loop and re-examines the whole backfill
// window against a shadow rebuilt by sorting the running jobs.  The prune
// must reproduce it start for start.
class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(SchedulerConfig config)
      : config_(config), free_(config.nodes) {}

  void submit(JobSpec job) { queue_.push_back(std::move(job)); }

  std::vector<JobStart> schedule_pass(SimTime now) {
    ++passes_;
    std::vector<JobStart> starts;
    const auto start = [&](JobSpec job) {
      free_ -= job.nodes;
      running_[job.id] = {job.nodes, now + job.requested_walltime};
      starts.push_back({std::move(job)});
    };
    while (!queue_.empty() && queue_.front().nodes <= free_) {
      JobSpec job = std::move(queue_.front());
      queue_.pop_front();
      start(std::move(job));
    }
    if (queue_.empty()) return starts;

    std::vector<std::pair<SimTime, JobId>> ends;
    for (const auto& [id, r] : running_) ends.emplace_back(r.end, id);
    std::sort(ends.begin(), ends.end());
    const std::size_t head = queue_.front().nodes;
    std::size_t freed = free_;
    SimTime shadow = now;
    std::size_t extra = 0;
    for (const auto& [end, id] : ends) {
      freed += running_.at(id).nodes;
      if (freed >= head) {
        shadow = std::max(end, now);
        extra = freed - head;
        break;
      }
    }
    std::size_t examined = 0;
    for (auto it = std::next(queue_.begin());
         it != queue_.end() && examined < config_.backfill_depth;
         ++examined) {
      const bool fits_now = it->nodes <= free_;
      const bool keeps_reservation =
          now + it->requested_walltime <= shadow || it->nodes <= extra;
      if (!fits_now || !keeps_reservation) {
        ++it;
        continue;
      }
      JobSpec job = std::move(*it);
      it = queue_.erase(it);
      start(std::move(job));
    }
    return starts;
  }

  void finish(JobId id, SimTime /*now*/) {
    free_ += running_.at(id).nodes;
    running_.erase(id);
  }
  void set_expected_end(JobId id, SimTime end) { running_.at(id).end = end; }
  [[nodiscard]] std::uint64_t passes_total() const { return passes_; }
  [[nodiscard]] std::size_t free_nodes() const { return free_; }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }

 private:
  struct Running {
    std::size_t nodes;
    SimTime end;
  };
  SchedulerConfig config_;
  std::size_t free_;
  std::deque<JobSpec> queue_;
  std::map<JobId, Running> running_;
  std::uint64_t passes_ = 0;
};

/// Every start of a churn run, tagged with the pass that made it, and the
/// free-node and running-job counts after every call that can change them.
struct ChurnLog {
  std::vector<std::pair<std::uint64_t, JobId>> starts;
  std::vector<std::pair<std::size_t, std::size_t>> counts;
  std::uint64_t passes = 0;
};

/// Seeded FIFO churn near a real epoch: bursts of tail submits, each
/// followed by a pass at the same `now`; finishes, mostly in end order but
/// some early (a crash) and some right after the start (a launch failure,
/// before any retime); starts that keep their walltime estimate; retimes
/// that keep the end, or move it earlier (most starts, and later on) or
/// later; and, in every 200 steps, a 20-step stretch in which nothing
/// calls a pass, as during maintenance.  Time moves in whole minutes, some
/// walltimes are whole quarter-hours and some realised ends snap to a
/// quarter-hour grid, so running jobs share expected ends, including a
/// start at its walltime end and a job filed at its realised end.
template <class Sched>
ChurnLog fifo_churn(std::size_t backfill_depth, std::uint64_t seed) {
  SchedulerConfig cfg;
  cfg.nodes = 512;
  cfg.backfill_depth = backfill_depth;
  Sched s(cfg);
  Rng rng(seed);
  const SimTime t0(1.6e9);
  SimTime now = t0;
  JobId id = 1;
  std::vector<std::pair<SimTime, JobId>> running;  // (expected end, id)
  ChurnLog log;
  bool blocked = false;
  const auto note = [&] {
    log.counts.emplace_back(s.free_nodes(), s.running_count());
  };
  const auto on_grid = [&](SimTime t) {
    return t0 + Duration::seconds(std::ceil((t - t0).sec() / 900.0) * 900.0);
  };
  const auto finish = [&](std::size_t i) {
    s.finish(running[i].second, now);
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    note();
  };
  const auto pass = [&] {
    if (blocked) return;
    const std::uint64_t pass_no = s.passes_total();
    bool last_retimed = true;
    for (const JobStart& st : s.schedule_pass(now)) {
      log.starts.emplace_back(pass_no, st.job.id);
      SimTime end = now + st.job.requested_walltime;
      last_retimed = rng.bernoulli(0.7);  // otherwise the estimate stands
      if (last_retimed) {
        end = now + st.job.requested_walltime * (0.3 + 0.6 * rng.uniform());
        if (rng.bernoulli(0.3)) end = on_grid(end);
        s.set_expected_end(st.job.id, end);
      }
      running.emplace_back(end, st.job.id);
    }
    note();
    if (!last_retimed && rng.bernoulli(0.2)) finish(running.size() - 1);
  };
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(running.size()) - 1));
  };
  for (int step = 0; step < 4000; ++step) {
    const bool was_blocked = blocked;
    blocked = step % 200 >= 180;
    if (was_blocked && !blocked) pass();  // the queue is released
    std::sort(running.begin(), running.end());
    while (!running.empty() && running.front().first <= now) {
      finish(0);
      pass();
    }
    const auto burst = rng.bernoulli(0.1) ? rng.uniform_int(1, 6) : 0;
    for (std::int64_t b = 0; b < burst; ++b) {
      // Wide heads block; narrow jobs arrive behind them and backfill.
      const auto nodes = rng.bernoulli(0.2) ? rng.uniform_int(128, 384)
                                            : rng.uniform_int(1, 48);
      const double walltime_h =
          rng.bernoulli(0.3)
              ? 0.25 * static_cast<double>(rng.uniform_int(1, 32))
              : 0.25 + 7.75 * rng.uniform();
      s.submit(
          job(id++, static_cast<std::size_t>(nodes), walltime_h, now));
      note();
      pass();
    }
    if (!running.empty() && rng.bernoulli(0.4)) {
      const auto& r = running[pick()];
      s.set_expected_end(r.second, r.first);  // the same end: no change
      pass();
    }
    if (!running.empty() && rng.bernoulli(0.05)) {
      auto& r = running[pick()];
      r.first = r.first + Duration::hours(rng.uniform(0.05, 0.5));
      s.set_expected_end(r.second, r.first);
      pass();
    }
    if (!running.empty() && rng.bernoulli(0.05)) {
      auto& r = running[pick()];
      r.first = std::max(
          now, on_grid(r.first - Duration::hours(rng.uniform(0.05, 2.0))));
      s.set_expected_end(r.second, r.first);
      pass();
    }
    if (!running.empty() && rng.bernoulli(0.03)) {
      finish(pick());
      pass();
    }
    now += Duration::minutes(static_cast<double>(rng.uniform_int(1, 15)));
  }
  log.passes = s.passes_total();
  return log;
}

TEST(Scheduler, SettledPassPruneMatchesTheFullScanReference) {
  for (const std::size_t depth : {1u, 3u, 200u}) {
    for (const std::uint64_t seed : {3u, 11u, 29u}) {
      const ChurnLog got = fifo_churn<Scheduler>(depth, seed);
      const ChurnLog want = fifo_churn<ReferenceScheduler>(depth, seed);
      EXPECT_GT(want.starts.size(), 900u) << depth << '/' << seed;
      EXPECT_EQ(got.passes, want.passes) << depth << '/' << seed;
      EXPECT_EQ(got.starts, want.starts) << depth << '/' << seed;
      EXPECT_EQ(got.counts, want.counts) << depth << '/' << seed;
    }
  }
}

TEST(Scheduler, ShadowOrdersThisPassesStartsAmongFiledEndsById) {
  // Job 2 (40 nodes) is filed at its realised end, 2 h.  At 1 h, job 1
  // (20 nodes) starts with its walltime end at 2 h too, leaving 10 free.
  // Head job 4 needs 45: in (end, id) order job 1 then job 2 free 70 at
  // 2 h, 25 spare, so job 5 (8 nodes, 10 h) backfills into the slack.
  // Taking job 2 first would cross at 50 with 5 spare and reject it.
  const auto run = [](auto s) {
    std::vector<JobId> started;
    const auto pass = [&](SimTime now) {
      for (const JobStart& st : s.schedule_pass(now)) {
        started.push_back(st.job.id);
      }
    };
    s.submit(job(2, 40, 3.0));
    s.submit(job(3, 30, 10.0));
    pass(SimTime(0.0));
    s.set_expected_end(2, SimTime(7200.0));
    const SimTime t1(3600.0);
    s.submit(job(1, 20, 1.0, t1));
    s.submit(job(4, 45, 1.0, t1));
    s.submit(job(5, 8, 10.0, t1));
    pass(t1);
    started.push_back(s.free_nodes());
    started.push_back(s.running_count());
    return started;
  };
  const std::vector<JobId> want = run(ReferenceScheduler({100, 200}));
  EXPECT_EQ(want, (std::vector<JobId>{2, 3, 1, 5, 2, 4}));
  EXPECT_EQ(run(Scheduler({100, 200})), want);
}

TEST(JobIdSet, MatchesAnOrderedSetUnderSeededChurn) {
  // A narrow id range forces repeats, long probe runs and erases that pull
  // entries back across the table's wrap; the extremes of the id range
  // ride along.
  JobIdSet got;
  std::set<JobId> want;
  Rng rng(77);
  const JobId wide[] = {0, 1, std::numeric_limits<JobId>::max(),
                        JobId{1} << 53, 0x9E3779B97F4A7C15ull};
  for (int step = 0; step < 20000; ++step) {
    const JobId id = rng.bernoulli(0.05)
                         ? wide[rng.uniform_int(0, 4)]
                         : static_cast<JobId>(rng.uniform_int(0, 300));
    if (rng.bernoulli(0.55)) {
      ASSERT_EQ(got.insert(id), want.insert(id).second) << step;
    } else if (want.erase(id) == 1) {
      got.erase(id);
    }
    ASSERT_EQ(got.size(), want.size()) << step;
  }
  for (const JobId id : want) EXPECT_FALSE(got.insert(id)) << id;
  for (const JobId id : want) got.erase(id);
  EXPECT_EQ(got.size(), 0u);
  EXPECT_TRUE(got.insert(7));
}

TEST(Scheduler, SubmittingALiveIdThrows) {
  Scheduler s({100, 200});
  s.submit(job(1, 10, 1.0));
  // Queued: the id is taken before the job ever starts.
  EXPECT_THROW(s.submit(job(1, 20, 1.0)), StateError);
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  // Running: still taken.
  EXPECT_THROW(s.submit(job(1, 20, 1.0)), StateError);
  EXPECT_EQ(s.free_nodes(), 90u);
  EXPECT_EQ(s.running_count(), 1u);
  // Once it finishes, the id runs again.
  s.finish(1, SimTime(60.0));
  s.submit(job(1, 20, 1.0, SimTime(60.0)));
  ASSERT_EQ(s.schedule_pass(SimTime(60.0)).size(), 1u);
  EXPECT_EQ(s.free_nodes(), 80u);
}

TEST(Scheduler, RejectedDuplicateSubmitChangesNothing) {
  // Job 1 runs; job 2 and a second job 1 are submitted.  The second job 1
  // is refused at submit, so the next pass starts job 2 and nothing else.
  Scheduler s({100, 200});
  s.submit(job(1, 10, 1.0));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 10, 1.0));
  EXPECT_THROW(s.submit(job(1, 10, 1.0)), StateError);
  EXPECT_EQ(s.queue_length(), 1u);
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.free_nodes(), 90u);
  const auto starts = s.schedule_pass(SimTime(0.0));
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts.front().job.id, 2u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.running_count(), 2u);
  EXPECT_EQ(s.free_nodes(), 80u);
}

/// Starts of a two-pass scenario: jobs 1 (50 nodes) and 2 (30 nodes) run
/// from `t0`, job 1 expected to end at `shadow_end`; head job 3 needs 60 of
/// the 100 nodes, so job 4 (15 nodes, walltime `w`) fits the 20 free nodes
/// but not the 10 left at the shadow.  It is rejected at `t0`, then the
/// queue is passed again at `t1` with nothing else changed.
template <class Sched>
std::vector<JobId> pass_again(SimTime t0, SimTime shadow_end, Duration w,
                              SimTime t1) {
  Sched s({100, 200});
  std::vector<JobId> started;
  const auto pass = [&](SimTime now) {
    for (const JobStart& st : s.schedule_pass(now)) {
      started.push_back(st.job.id);
    }
  };
  s.submit(job(1, 50, 10.0, t0));
  s.submit(job(2, 30, 10.0, t0));
  pass(t0);
  s.set_expected_end(1, shadow_end);
  s.submit(job(3, 60, 10.0, t0));
  JobSpec probe = job(4, 15, 1.0, t0);
  probe.requested_walltime = w;
  s.submit(probe);
  pass(t0);
  pass(t1);
  return started;
}

TEST(Scheduler, APassThatBackfilledIsNotCarriedOver) {
  // A backfill into the shadow slack uses up part of it: the next pass
  // must see 5 spare nodes at the shadow, not the 30 of the pass before.
  const auto run = [](auto s) {
    std::vector<JobId> started;
    const auto pass = [&](SimTime now) {
      for (const JobStart& st : s.schedule_pass(now)) {
        started.push_back(st.job.id);
      }
    };
    s.submit(job(1, 60, 2.0));  // the shadow: 100 nodes free at 2 h
    pass(SimTime(0.0));
    s.submit(job(2, 70, 1.0));   // head; 30 spare at the shadow
    s.submit(job(3, 25, 10.0));  // backfills into the slack
    pass(SimTime(0.0));
    s.submit(job(4, 10, 10.0));  // each fits the 15 free, not the 5 spare
    s.submit(job(5, 10, 10.0));
    pass(SimTime(60.0));
    return started;
  };
  const std::vector<JobId> want = run(ReferenceScheduler({100, 200}));
  EXPECT_EQ(want, (std::vector<JobId>{1, 3}));
  EXPECT_EQ(run(Scheduler({100, 200})), want);
}

TEST(Scheduler, SettledPassFallsBackWhenAWalltimeVanishesInLaterTimes) {
  // Job 4 ends after the shadow at t0, but at t1 its walltime is below
  // half an ulp of `now`, so now + w == now and it ends "by" the shadow.
  const SimTime t0(1e9);
  const SimTime t1(2e9);
  const Duration w = Duration::seconds(1e-7);
  ASSERT_GT(t0 + w, t0);
  ASSERT_EQ(t1 + w, t1);
  const auto want = pass_again<ReferenceScheduler>(t0, t0, w, t1);
  EXPECT_EQ(want, (std::vector<JobId>{1, 2, 4}));
  EXPECT_EQ(pass_again<Scheduler>(t0, t0, w, t1), want);
}

TEST(Scheduler, SettledPassRunsInFullWhenTimeGoesBack) {
  // At t0 job 4 would end an hour after the shadow; two hours earlier it
  // ends an hour before it.
  const SimTime t0(36000.0);
  const auto want = pass_again<ReferenceScheduler>(
      t0, t0 + Duration::hours(1.0), Duration::hours(2.0),
      t0 - Duration::hours(2.0));
  EXPECT_EQ(want, (std::vector<JobId>{1, 2, 4}));
  EXPECT_EQ(pass_again<Scheduler>(t0, t0 + Duration::hours(1.0),
                                  Duration::hours(2.0),
                                  t0 - Duration::hours(2.0)),
            want);
}

}  // namespace
}  // namespace hpcem
