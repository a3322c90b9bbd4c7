// Placement study: how scheduler fragmentation spreads jobs across the
// dragonfly and what that costs communication-heavy applications.
//
// The scheduler decides by node count; this study composes it with the
// contiguous-first NodeAllocator, placing each start in the order the
// scheduler returns them and releasing on finish.  As the machine fills
// and fragments, jobs scatter across switch groups and their mean pairwise
// hop distance rises.  This example quantifies that effect
// on the ARCHER2 fabric model and estimates the communication-time penalty
// for a representative climate workload.
#include <iostream>
#include <unordered_map>

#include "core/facility.hpp"
#include "sched/allocator.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace hpcem;
  const Facility facility = Facility::archer2();
  const Dragonfly& fabric = facility.fabric();

  // Fill the machine to a target load with random job sizes, then measure
  // the placement quality of a stream of 128-node probe jobs.
  auto probe_at_load = [&](double target_load, std::uint64_t seed) {
    SchedulerConfig cfg;
    cfg.nodes = facility.inventory().compute_nodes;
    Scheduler sched(cfg);
    NodeAllocator nodes(cfg.nodes);
    std::unordered_map<JobId, std::vector<NodeRun>> placed;
    const auto place = [&](const JobStart& s) {
      auto runs = nodes.allocate(s.job.nodes);
      if (!runs) throw StateError("placement_study: scheduler overcommitted");
      placed.emplace(s.job.id, std::move(*runs));
    };
    const auto finish = [&](JobId id, SimTime at) {
      sched.finish(id, at);
      nodes.release(placed.at(id));
      placed.erase(id);
    };
    Rng rng(seed);
    JobId next = 1;
    std::vector<JobId> running;
    SimTime now(0.0);
    // Churn until steady at the target load.
    for (int step = 0; step < 4000; ++step) {
      if (sched.utilisation() < target_load) {
        JobSpec j;
        j.id = next++;
        j.nodes = static_cast<std::size_t>(rng.uniform_int(1, 256));
        j.requested_walltime = Duration::hours(2.0);
        j.submit_time = now;
        sched.submit(std::move(j));
        for (auto& s : sched.schedule_pass(now)) {
          place(s);
          running.push_back(s.job.id);
        }
      } else if (!running.empty()) {
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(running.size()) - 1));
        finish(running[idx], now);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      now += Duration::minutes(1.0);
    }
    // Probe: allocate 16 x 128-node jobs and measure their spread.
    RunningStats hops;
    for (int i = 0; i < 16; ++i) {
      JobSpec j;
      j.id = next++;
      j.nodes = 128;
      j.requested_walltime = Duration::hours(1.0);
      j.submit_time = now;
      sched.submit(std::move(j));
      // Place the whole pass before any finish, as a scheduler that
      // allocated inside the pass would.
      const auto starts = sched.schedule_pass(now);
      for (const auto& s : starts) place(s);
      for (const auto& s : starts) {
        hops.add(fabric.mean_pairwise_hops(expand(placed.at(s.job.id))));
        finish(s.job.id, now);
      }
    }
    return hops;
  };

  std::cout << "Probe: 128-node jobs on the " << facility.name()
            << " dragonfly (" << fabric.params().groups << " groups x "
            << fabric.params().switches_per_group << " switches)\n\n";

  TextTable t({"Machine load", "Mean pairwise hops", "Est. comm-time penalty"},
              {Align::kRight, Align::kRight, Align::kRight});
  // Communication time scales roughly with mean hop distance; a climate
  // code spends ~25% of runtime communicating (catalogue comm_fraction).
  const double comm_fraction =
      facility.catalog().at("UM atmosphere (production)").spec()
          .comm_fraction;
  double empty_hops = 0.0;
  for (double load : {0.00, 0.50, 0.80, 0.90, 0.95}) {
    // Average over several fill histories: fragmentation is path-dependent.
    RunningStats hops;
    for (std::uint64_t seed : {17u, 23u, 31u, 47u, 59u}) {
      hops.merge(probe_at_load(load, seed));
    }
    if (hops.empty()) continue;
    if (empty_hops == 0.0) empty_hops = hops.mean();
    const double penalty =
        comm_fraction * (hops.mean() / empty_hops - 1.0);
    t.add_row({TextTable::pct(load, 0), TextTable::num(hops.mean(), 3),
               TextTable::pct(penalty, 1)});
  }
  std::cout << t.str() << '\n';
  std::cout << "Reading: contiguous placement on an empty machine keeps "
               "jobs inside few switch groups; at >90% load (where the "
               "paper says efficient facilities must run) fragmentation "
               "spreads jobs fabric-wide, and the flat ~200-250 W switch "
               "draw means that communication costs time, not watts.\n";
  return 0;
}
