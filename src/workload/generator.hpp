// Synthetic production workload generator.
//
// Generates a job stream whose node-hour mix follows the catalogue's
// production weights and whose offered load tracks a target utilisation —
// ARCHER2 runs "consistently over 90%" utilised (paper §3.2), which is an
// input assumption of the whole analysis.  Arrivals are Poisson with weekly
// modulation (weekday submissions outnumber weekends) so the simulated
// cabinet-power series has the texture of the paper's Figure 1 rather than
// a flat line.
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

/// Tunables for the generator.
struct WorkloadGenParams {
  /// Long-run offered load as a fraction of machine capacity.  Slightly
  /// above the achievable utilisation so the scheduler queue stays primed.
  double offered_load = 0.97;
  /// Weekend arrival rate relative to weekdays.
  double weekend_factor = 0.75;
  /// Log-normal sigma applied to per-job node counts around the app's
  /// typical size (jobs come in many sizes).
  double nodes_sigma = 0.6;
  /// Log-normal sigma applied to per-job runtimes.
  double runtime_sigma = 0.5;
  /// Per-node silicon quality spread (std dev of the fleet distribution).
  double silicon_sigma = 0.25;
  /// Fraction of jobs whose users explicitly pin the turbo P-state once the
  /// default changes (the paper let users revert the frequency default).
  double user_turbo_pin_fraction = 0.05;
  /// Largest job the generator will emit, in nodes.
  std::size_t max_job_nodes = 1024;
  /// Fraction of jobs submitted to the discounted low-priority class.
  double low_priority_fraction = 0.08;
  /// Width at or above which a job is classed large-scale.
  std::size_t largescale_min_nodes = 256;
};

/// Poisson job-stream generator over a catalogue's production mix.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const AppCatalog& catalog, std::size_t machine_nodes,
                    WorkloadGenParams params, Rng rng);

  /// Generate all arrivals in [start, end), time-ordered.
  [[nodiscard]] std::vector<JobSpec> generate(SimTime start, SimTime end);

  /// Generate one hour of arrivals starting at `hour_start`.  `rate_scale`
  /// multiplies the arrival rate; the facility simulator uses it to model
  /// budget-capped demand — ARCHER2 allocations are charged in node-hours,
  /// so when a policy slows jobs down users burn budget faster and submit
  /// correspondingly less work, keeping offered node-hours constant.
  [[nodiscard]] std::vector<JobSpec> generate_hour(SimTime hour_start,
                                                   double rate_scale = 1.0);

  /// Mean arrivals per weekday hour at rate_scale 1 (weekend hours arrive
  /// at weekend_factor times this): the highest hourly rate, and so the
  /// basis of an upper estimate of a run's job count.
  [[nodiscard]] double weekday_rate_per_hour() const;

  /// Upper estimate of the jobs `hours` hourly draws submit when no hour's
  /// rate_scale exceeds `max_rate_scale`: every hour at the weekday rate,
  /// plus four Poisson standard deviations.
  [[nodiscard]] std::size_t jobs_upper_estimate(double hours,
                                                double max_rate_scale) const;

  /// Expected node-hours per hour of wall clock at the offered load.
  [[nodiscard]] double offered_node_hours_per_hour() const;

  /// Mean node-hours of one generated job (analytic, for rate derivation).
  [[nodiscard]] double mean_job_node_hours() const;

 private:
  /// A production application with its log-normal location parameters,
  /// mu = ln(typical) - sigma^2 / 2, computed once rather than per job.
  struct MixEntry {
    const ApplicationModel* model;
    AppId id;
    double nodes_mu;
    double runtime_mu;
  };

  JobSpec make_job(SimTime submit);

  std::size_t machine_nodes_;
  WorkloadGenParams params_;
  Rng rng_;
  std::vector<MixEntry> mix_;
  std::vector<double> weights_;
  JobId next_id_ = 1;
};

}  // namespace hpcem
