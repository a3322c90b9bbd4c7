// Tests for the partitioned scheduler.
#include <gtest/gtest.h>

#include "sched/partition.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

PartitionedJob pjob(JobId id, const std::string& partition,
                    std::size_t nodes, double walltime_h = 2.0) {
  PartitionedJob p;
  p.partition = partition;
  p.job.id = id;
  p.job.nodes = nodes;
  p.job.requested_walltime = Duration::hours(walltime_h);
  p.job.submit_time = SimTime(0.0);
  return p;
}

TEST(Partitions, Archer2Split) {
  const auto specs = PartitionedScheduler::archer2_partitions();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "standard");
  EXPECT_EQ(specs[0].nodes, 5276u);
  EXPECT_EQ(specs[1].name, "highmem");
  EXPECT_EQ(specs[1].nodes, 584u);
  // The two partitions sum to the machine.
  EXPECT_EQ(specs[0].nodes + specs[1].nodes, 5860u);
}

TEST(Partitions, RoutesJobsToTheirPools) {
  PartitionedScheduler ps(PartitionedScheduler::archer2_partitions());
  ps.submit(pjob(1, "standard", 100));
  ps.submit(pjob(2, "highmem", 50));
  const auto starts = ps.schedule_pass(SimTime(0.0));
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(ps.scheduler("standard").busy_nodes(), 100u);
  EXPECT_EQ(ps.scheduler("highmem").busy_nodes(), 50u);
  EXPECT_EQ(ps.busy_nodes(), 150u);
  EXPECT_EQ(ps.total_nodes(), 5860u);
}

TEST(Partitions, PoolsAreFencedOff) {
  // The cost of partitioning: a standard job cannot use idle highmem
  // nodes, and a job wider than its partition is rejected outright even
  // though the whole machine could hold it.
  PartitionedScheduler ps(PartitionedScheduler::archer2_partitions());
  EXPECT_THROW(ps.submit(pjob(1, "highmem", 585)), InvalidArgument);
  ps.submit(pjob(2, "highmem", 584));
  ASSERT_EQ(ps.schedule_pass(SimTime(0.0)).size(), 1u);
  // highmem full; a 1-node highmem job queues while standard sits empty.
  ps.submit(pjob(3, "highmem", 1));
  EXPECT_TRUE(ps.schedule_pass(SimTime(0.0)).empty());
  EXPECT_EQ(ps.queue_length("highmem"), 1u);
  EXPECT_EQ(ps.queue_length("standard"), 0u);
  EXPECT_NEAR(ps.utilisation("highmem"), 1.0, 1e-12);
  EXPECT_NEAR(ps.utilisation("standard"), 0.0, 1e-12);
  EXPECT_NEAR(ps.total_utilisation(), 584.0 / 5860.0, 1e-9);
}

TEST(Partitions, FinishRoutesByPartition) {
  PartitionedScheduler ps(PartitionedScheduler::archer2_partitions());
  ps.submit(pjob(7, "highmem", 10));
  ASSERT_EQ(ps.schedule_pass(SimTime(0.0)).size(), 1u);
  // Finishing on the wrong partition is an error, not a silent no-op.
  EXPECT_THROW(ps.finish("standard", 7, SimTime(1.0)), Error);
  ps.finish("highmem", 7, SimTime(1.0));
  EXPECT_EQ(ps.busy_nodes(), 0u);
}

TEST(Partitions, UnknownPartitionRejected) {
  PartitionedScheduler ps(PartitionedScheduler::archer2_partitions());
  EXPECT_THROW(ps.submit(pjob(1, "gpu", 1)), InvalidArgument);
  EXPECT_THROW(ps.utilisation("gpu"), InvalidArgument);
  EXPECT_THROW(ps.scheduler("gpu"), InvalidArgument);
}

TEST(Partitions, ConstructionValidation) {
  EXPECT_THROW(PartitionedScheduler({}), InvalidArgument);
  PartitionSpec unnamed;
  unnamed.nodes = 10;
  EXPECT_THROW(PartitionedScheduler({unnamed}), InvalidArgument);
  PartitionSpec empty_pool;
  empty_pool.name = "x";
  EXPECT_THROW(PartitionedScheduler({empty_pool}), InvalidArgument);
  PartitionSpec a;
  a.name = "dup";
  a.nodes = 1;
  EXPECT_THROW(PartitionedScheduler({a, a}), InvalidArgument);
}

TEST(Partitions, PerPartitionDiscipline) {
  // A priority-disciplined partition next to a FIFO one.
  auto specs = PartitionedScheduler::archer2_partitions();
  specs[0].discipline = QueueDiscipline::kPriority;
  PartitionedScheduler ps(std::move(specs));
  // Fill the standard partition completely.
  ps.submit(pjob(1, "standard", 5276, 10.0));
  ASSERT_EQ(ps.schedule_pass(SimTime(0.0)).size(), 1u);
  auto low = pjob(2, "standard", 100);
  low.job.qos = QosClass::kLowPriority;
  auto high = pjob(3, "standard", 100);
  high.job.qos = QosClass::kShort;
  ps.submit(low);
  ps.submit(high);
  ps.finish("standard", 1, SimTime(100.0));
  const auto starts = ps.schedule_pass(SimTime(100.0));
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].start.job.id, 3u);  // short class wins in standard
}

}  // namespace
}  // namespace hpcem
