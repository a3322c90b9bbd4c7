#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hpcem {

WorkloadGenerator::WorkloadGenerator(const AppCatalog& catalog,
                                     std::size_t machine_nodes,
                                     WorkloadGenParams params, Rng rng)
    : machine_nodes_(machine_nodes), params_(params), rng_(rng) {
  require(machine_nodes_ > 0, "WorkloadGenerator: machine must have nodes");
  require(params_.offered_load > 0.0 && params_.offered_load <= 1.5,
          "WorkloadGenerator: offered_load out of range");
  require(params_.weekend_factor > 0.0 && params_.weekend_factor <= 1.0,
          "WorkloadGenerator: weekend_factor out of range");
  require(params_.max_job_nodes >= 1 &&
              params_.max_job_nodes <= machine_nodes_,
          "WorkloadGenerator: max_job_nodes out of range");
  const std::vector<const ApplicationModel*> production =
      catalog.production_mix();
  require(!production.empty(),
          "WorkloadGenerator: catalogue has no production mix");
  // Log-normal around the application's typical geometry, parameterised so
  // the mean equals the typical value: mu = ln(m) - sigma^2 / 2.
  //
  // mix_weight is a *node-hour* share; converting to a per-job draw
  // probability divides out the app's typical job size so that big-job
  // applications do not swallow the machine.
  const double ns = params_.nodes_sigma;
  const double rs = params_.runtime_sigma;
  mix_.reserve(production.size());
  weights_.reserve(production.size());
  for (const auto* app : production) {
    const auto& s = app->spec();
    mix_.push_back({app, catalog.id(app->name()),
                    std::log(s.typical_nodes) - ns * ns / 2.0,
                    std::log(s.typical_runtime_h) - rs * rs / 2.0});
    weights_.push_back(s.mix_weight /
                       (s.typical_nodes * s.typical_runtime_h));
  }
}

double WorkloadGenerator::mean_job_node_hours() const {
  // Node counts and runtimes are drawn log-normally with the catalogue's
  // typical values as means.  Jobs are drawn with probability proportional
  // to mix_weight / typical-node-hours (see the constructor), so the mean
  // job size is sum(p_i * nh_i) / sum(p_i) = sum(w_i) / sum(w_i / nh_i).
  double num = 0.0;
  double den = 0.0;
  for (const MixEntry& entry : mix_) {
    const auto& s = entry.model->spec();
    num += s.mix_weight;
    den += s.mix_weight / (s.typical_nodes * s.typical_runtime_h);
  }
  HPCEM_ASSERT(den > 0.0, "production mix weights");
  return num / den;
}

double WorkloadGenerator::offered_node_hours_per_hour() const {
  return params_.offered_load * static_cast<double>(machine_nodes_);
}

double WorkloadGenerator::weekday_rate_per_hour() const {
  // Average weekly modulation factor (5 weekdays + 2 weekend days) keeps
  // the long-run offered load at the configured level.
  const double avg_week = (5.0 + 2.0 * params_.weekend_factor) / 7.0;
  return offered_node_hours_per_hour() / mean_job_node_hours() / avg_week;
}

std::size_t WorkloadGenerator::jobs_upper_estimate(
    double hours, double max_rate_scale) const {
  require(hours >= 0.0 && max_rate_scale >= 0.0,
          "WorkloadGenerator::jobs_upper_estimate: negative input");
  const double mean =
      weekday_rate_per_hour() * max_rate_scale * std::ceil(hours);
  return static_cast<std::size_t>(std::ceil(mean + 4.0 * std::sqrt(mean)));
}

JobSpec WorkloadGenerator::make_job(SimTime submit) {
  const MixEntry& app = mix_[rng_.discrete(weights_)];

  JobSpec job;
  job.id = next_id_++;
  job.app = app.id;
  job.submit_time = submit;

  const double nodes_f = rng_.lognormal(app.nodes_mu, params_.nodes_sigma);
  job.nodes = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(nodes_f)), 1,
      params_.max_job_nodes);

  const double runtime_h =
      rng_.lognormal(app.runtime_mu, params_.runtime_sigma);
  job.ref_runtime = Duration::hours(std::max(0.05, runtime_h));
  // Twice the reference runtime comfortably covers the worst slowdown the
  // hardware can express (1.5 GHz cap on a fully compute-bound code: 1.87x).
  job.requested_walltime = job.ref_runtime * 2.0;

  // Mean silicon quality of the allocation; averaging over `nodes` parts
  // shrinks the spread.
  const double sil =
      rng_.normal(1.0, params_.silicon_sigma /
                           std::sqrt(static_cast<double>(job.nodes)));
  job.silicon_factor = std::clamp(sil, 0.5, 1.5);

  // A small user population pins turbo regardless of the service default.
  if (rng_.bernoulli(params_.user_turbo_pin_fraction)) {
    job.user_pstate = pstates::kHighTurbo;
  }

  // QoS classification: discounted opportunistic work first, then the
  // structural classes by geometry.
  if (rng_.bernoulli(params_.low_priority_fraction)) {
    job.qos = QosClass::kLowPriority;
  } else if (job.nodes >= params_.largescale_min_nodes) {
    job.qos = QosClass::kLargeScale;
  } else if (job.ref_runtime.hrs() <= 3.0 && job.nodes <= 16) {
    job.qos = QosClass::kShort;
  } else {
    job.qos = QosClass::kStandard;
  }
  return job;
}

std::vector<JobSpec> WorkloadGenerator::generate_hour(SimTime hour_start,
                                                      double rate_scale) {
  require(rate_scale >= 0.0,
          "WorkloadGenerator::generate_hour: rate_scale must be >= 0");
  const bool weekend = day_of_week(hour_start) >= 5;
  const double rate = weekday_rate_per_hour() * rate_scale *
                      (weekend ? params_.weekend_factor : 1.0);
  std::vector<JobSpec> jobs;
  const std::uint64_t n = rng_.poisson(rate);
  jobs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    jobs.push_back(make_job(hour_start + Duration::hours(rng_.uniform())));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.submit_time < b.submit_time;
            });
  return jobs;
}

std::vector<JobSpec> WorkloadGenerator::generate(SimTime start, SimTime end) {
  require(end > start, "WorkloadGenerator::generate: end must follow start");
  std::vector<JobSpec> jobs;
  for (SimTime t = start; t < end; t += Duration::hours(1.0)) {
    for (auto& j : generate_hour(t)) {
      if (j.submit_time < end) jobs.push_back(std::move(j));
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.submit_time < b.submit_time;
            });
  return jobs;
}

}  // namespace hpcem
