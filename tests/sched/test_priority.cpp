// Tests for the QoS priority queue discipline.
#include <gtest/gtest.h>

#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

JobSpec job(JobId id, std::size_t nodes, double walltime_h, QosClass qos,
            SimTime submit = SimTime(0.0)) {
  JobSpec j;
  j.id = id;
  j.nodes = nodes;
  j.requested_walltime = Duration::hours(walltime_h);
  j.submit_time = submit;
  j.qos = qos;
  return j;
}

SchedulerConfig priority_config(std::size_t nodes = 100) {
  SchedulerConfig cfg;
  cfg.nodes = nodes;
  cfg.discipline = QueueDiscipline::kPriority;
  return cfg;
}

TEST(QosClassLabels, AllDistinct) {
  EXPECT_EQ(to_string(QosClass::kStandard), "standard");
  EXPECT_EQ(to_string(QosClass::kShort), "short");
  EXPECT_EQ(to_string(QosClass::kLargeScale), "largescale");
  EXPECT_EQ(to_string(QosClass::kLowPriority), "lowpriority");
}

TEST(PrioritySched, ShortClassJumpsStandard) {
  Scheduler s(priority_config());
  // Fill the machine so nothing can start, then queue both classes.
  s.submit(job(1, 100, 10.0, QosClass::kStandard));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 50, 1.0, QosClass::kStandard));
  s.submit(job(3, 50, 1.0, QosClass::kShort));  // submitted later
  s.finish(1, SimTime(100.0));
  const auto starts = s.schedule_pass(SimTime(100.0));
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].job.id, 3u);  // short class first
  EXPECT_EQ(starts[1].job.id, 2u);
}

TEST(PrioritySched, FifoKeepsSubmissionOrder) {
  SchedulerConfig cfg;
  cfg.nodes = 100;  // default kFifo
  Scheduler s(cfg);
  s.submit(job(1, 100, 10.0, QosClass::kStandard));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 50, 1.0, QosClass::kStandard));
  s.submit(job(3, 50, 1.0, QosClass::kShort));
  s.finish(1, SimTime(100.0));
  const auto starts = s.schedule_pass(SimTime(100.0));
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].job.id, 2u);  // submission order, QoS ignored
}

TEST(PrioritySched, AgingLiftsLowPriorityEventually) {
  Scheduler s(priority_config());
  // lowpriority (base 0) vs short (base 3000): aging at 100/h closes the
  // gap after 30 hours.
  const JobSpec old_low =
      job(1, 10, 1.0, QosClass::kLowPriority, SimTime(0.0));
  const JobSpec fresh_short = job(
      2, 10, 1.0, QosClass::kShort, SimTime(31.0 * 3600.0));
  const SimTime now(31.0 * 3600.0);
  EXPECT_GT(s.priority_of(old_low, now), s.priority_of(fresh_short, now));
  // Before the crossover the short job still wins.
  const SimTime early(10.0 * 3600.0);
  const JobSpec fresh_short_early =
      job(3, 10, 1.0, QosClass::kShort, early);
  EXPECT_LT(s.priority_of(old_low, early),
            s.priority_of(fresh_short_early, early));
}

TEST(PrioritySched, SizeBoostHelpsWideJobs) {
  Scheduler s(priority_config(2048));
  const SimTime now(0.0);
  const JobSpec wide = job(1, 1024, 1.0, QosClass::kStandard);
  const JobSpec narrow = job(2, 1, 1.0, QosClass::kStandard);
  EXPECT_GT(s.priority_of(wide, now), s.priority_of(narrow, now));
  // The boost (0.2/node) must not outrank a whole QoS class for typical
  // sizes: a 128-node standard job stays below a short-class job.
  const JobSpec medium = job(3, 128, 1.0, QosClass::kStandard);
  const JobSpec short_j = job(4, 1, 1.0, QosClass::kShort);
  EXPECT_LT(s.priority_of(medium, now), s.priority_of(short_j, now));
}

TEST(PrioritySched, LargeScaleClassAssemblesWideJobs) {
  Scheduler s(priority_config(256));
  // Machine busy with a long filler.
  s.submit(job(1, 200, 24.0, QosClass::kStandard));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  // A stream of long standard jobs plus one large-scale job.
  s.submit(job(2, 40, 30.0, QosClass::kStandard));
  s.submit(job(3, 256, 2.0, QosClass::kLargeScale));
  s.submit(job(4, 40, 30.0, QosClass::kStandard));
  // 56 nodes free: the head (largescale, highest priority) cannot start,
  // and EASY refuses to backfill the 40-node jobs — their 30 h walltime
  // overruns the 24 h shadow and the spare capacity at the shadow is zero.
  // The wide job's reservation is protected.
  EXPECT_TRUE(s.schedule_pass(SimTime(0.0)).empty());
  s.finish(1, SimTime(3600.0));
  const auto starts = s.schedule_pass(SimTime(3600.0));
  ASSERT_GE(starts.size(), 1u);
  EXPECT_EQ(starts[0].job.id, 3u);  // the large-scale job assembles first
}

TEST(PrioritySched, StablePriorityTiesKeepSubmissionOrder) {
  Scheduler s(priority_config());
  s.submit(job(1, 100, 10.0, QosClass::kStandard));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);
  s.submit(job(2, 10, 1.0, QosClass::kStandard, SimTime(0.0)));
  s.submit(job(3, 10, 1.0, QosClass::kStandard, SimTime(0.0)));
  s.finish(1, SimTime(10.0));
  const auto starts = s.schedule_pass(SimTime(10.0));
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].job.id, 2u);
  EXPECT_EQ(starts[1].job.id, 3u);
}

TEST(PrioritySched, ANewSubmitCanTakeTheHeadAfterAPassThatStartedNothing) {
  // Under FIFO a submit lands at the tail; under priority it may land at
  // the head, so a pass after one that started nothing must reorder and
  // re-run the head loop, not only look at the newest job.
  Scheduler s(priority_config());
  s.submit(job(1, 70, 10.0, QosClass::kStandard));
  ASSERT_EQ(s.schedule_pass(SimTime(0.0)).size(), 1u);  // 30 nodes free
  s.submit(job(2, 90, 10.0, QosClass::kLowPriority));
  EXPECT_TRUE(s.schedule_pass(SimTime(0.0)).empty());
  // Job 3 fits the 30 free nodes as the head, but as a backfill it would
  // overrun the shadow (10 h) and the 10 nodes left at it.
  s.submit(job(3, 30, 20.0, QosClass::kShort));
  const auto starts = s.schedule_pass(SimTime(60.0));
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].job.id, 3u);
}

}  // namespace
}  // namespace hpcem
