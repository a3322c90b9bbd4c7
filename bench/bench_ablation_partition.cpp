// Ablation: the utilisation cost of partitioning.
//
// Fencing 584 nodes into a highmem partition protects large-memory users
// but strands capacity whenever the partition demands are unbalanced — and
// stranded capacity is stranded *energy* (idle nodes still draw 230 W,
// paper conclusions).  The harness drives the same job stream through a
// single pool and through the ARCHER2 partition split, and prices the
// utilisation gap in idle-power terms.
#include <iostream>

#include "sched/partition.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/text_table.hpp"

namespace {

using namespace hpcem;

struct Result {
  double mean_utilisation = 0.0;
};

/// Drive a random job stream where `highmem_share` of jobs need highmem.
/// `partitioned` fences the pools; otherwise one 5,860-node pool.
Result drive(bool partitioned, double highmem_share, std::uint64_t seed) {
  std::vector<PartitionSpec> specs;
  if (partitioned) {
    specs = PartitionedScheduler::archer2_partitions();
  } else {
    PartitionSpec all;
    all.name = "standard";
    all.nodes = 5860;
    specs = {all};
  }
  PartitionedScheduler ps(std::move(specs));
  Rng rng(seed);
  JobId next = 1;
  std::vector<std::pair<std::string, JobId>> running;
  RunningStats util;
  SimTime now(0.0);
  for (int step = 0; step < 6000; ++step) {
    // Offered load ~0.95: submit while the queue is shallow.
    if (ps.queue_length("standard") < 40) {
      PartitionedJob j;
      const bool wants_highmem = rng.bernoulli(highmem_share);
      j.partition =
          partitioned && wants_highmem ? "highmem" : "standard";
      j.job.id = next++;
      const std::size_t pool_cap = partitioned && wants_highmem ? 584 : 1024;
      j.job.nodes = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(
                                 std::min<std::size_t>(pool_cap, 256))));
      j.job.requested_walltime = Duration::hours(rng.uniform(1.0, 6.0));
      j.job.submit_time = now;
      ps.submit(std::move(j));
    }
    for (auto& s : ps.schedule_pass(now)) {
      running.emplace_back(s.partition, s.start.job.id);
    }
    if (!running.empty() && rng.bernoulli(0.4)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(running.size()) - 1));
      ps.finish(running[idx].first, running[idx].second, now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    if (step > 1000) util.add(ps.total_utilisation());  // skip fill-up
    now += Duration::minutes(5.0);
  }
  return {util.mean()};
}

}  // namespace

int main() {
  using namespace hpcem;
  TextTable t({"Highmem demand share", "Pooled utilisation",
               "Partitioned utilisation", "Stranded idle power"},
              {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (double share : {0.02, 0.10, 0.25}) {
    const Result pooled = drive(false, share, 41);
    const Result split = drive(true, share, 41);
    const PowerKw stranded_kw{
        (pooled.mean_utilisation - split.mean_utilisation) * 5860.0 *
        0.230};
    t.add_row({TextTable::pct(share, 0),
               TextTable::pct(pooled.mean_utilisation, 1),
               TextTable::pct(split.mean_utilisation, 1),
               TextTable::grouped(stranded_kw.kw()) + " kW"});
  }
  std::cout << "Ablation: partitioning cost (standard 5,276 + highmem 584 "
               "vs one 5,860-node pool)\n"
            << t.str() << '\n';
  std::cout << "Highmem demand near the partition's 10% capacity share "
               "keeps the fence cheap; demand imbalance strands capacity "
               "that still draws idle power. (Stranded power is the "
               "utilisation gap priced at the 230 W idle draw; the real "
               "cost also includes delayed science.)\n";
  return 0;
}
