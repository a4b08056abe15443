#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"
#include "workload/progress_model.hpp"

namespace sprintcon::core {

namespace {
// Deadline planning aims to finish slightly early so late disturbances
// (P_batch dips, interactive spikes) cannot turn into a miss.
constexpr double kDeadlineSafety = 0.95;
// Sentinel "no constraint" CB target for sub-minute bursts.
constexpr double kUnconstrainedW = 1e12;
// Quantile of interactive power that sizes its CB headroom: P_batch
// tracks P_cb - quantile_q(p_inter), the paper's "90% of the time" rule.
constexpr double kInteractiveQuantile = 0.9;
// Per-period limit on P_batch moves, as a fraction of CB rated power
// (keeps the target a slow outer loop relative to the MPC settling).
constexpr double kPBatchSlewFraction = 0.15;
}  // namespace

PowerLoadAllocator::PowerLoadAllocator(const SprintConfig& config)
    : config_(config),
      p_batch_w_(0.0),
      // Initial prior: reserve a quarter of the rated capacity for
      // interactive power until the first observation window completes.
      interactive_headroom_w_(0.25 * config.cb_rated_w) {
  config.validate();
}

double PowerLoadAllocator::p_cb_at(double t_since_start_s) const {
  SPRINTCON_EXPECTS(t_since_start_s >= 0.0, "time must be non-negative");
  switch (config_.overload_policy()) {
    case OverloadPolicy::kUnconstrained:
      return kUnconstrainedW;
    case OverloadPolicy::kContinuous:
      return t_since_start_s < config_.burst_duration_s
                 ? config_.cb_overload_w()
                 : config_.cb_rated_w;
    case OverloadPolicy::kPeriodic: {
      if (t_since_start_s >= config_.burst_duration_s)
        return config_.cb_rated_w;
      const double cycle =
          config_.cb_overload_duration_s + config_.cb_recovery_duration_s;
      const double phase =
          std::fmod(t_since_start_s + config_.schedule_offset_s, cycle);
      return phase < config_.cb_overload_duration_s ? config_.cb_overload_w()
                                                    : config_.cb_rated_w;
    }
  }
  return config_.cb_rated_w;  // unreachable; keeps GCC quiet
}

bool PowerLoadAllocator::overloading_at(double t_since_start_s) const {
  return p_cb_at(t_since_start_s) > config_.cb_rated_w;
}

void PowerLoadAllocator::observe_interactive_power(double p_inter_w) {
  SPRINTCON_EXPECTS(p_inter_w >= 0.0, "interactive power must be >= 0");
  inter_window_.push_back(p_inter_w);
}

double PowerLoadAllocator::deadline_floor_w(
    const std::vector<BatchJobStatus>& jobs) const {
  double floor_w = 0.0;
  for (const BatchJobStatus& job : jobs) {
    if (!job.active || job.remaining_work_s <= 0.0) continue;
    const workload::ProgressModel model(job.compute_fraction);
    const double f_req = model.frequency_for_deadline(
        job.remaining_work_s, job.time_left_s * kDeadlineSafety, job.freq_min,
        job.freq_max);
    floor_w += job.gain_w_per_f * f_req + job.constant_w;
  }
  return floor_w;
}

double PowerLoadAllocator::recovery_floor_w(
    const std::vector<BatchJobStatus>& jobs, double overload_batch_w) const {
  // Fraction of each overload/recovery cycle spent overloading.
  const double cycle =
      config_.cb_overload_duration_s + config_.cb_recovery_duration_s;
  const double alpha = config_.overload_policy() == OverloadPolicy::kPeriodic
                           ? config_.cb_overload_duration_s / cycle
                           : 1.0;
  if (alpha >= 1.0) return deadline_floor_w(jobs);  // single-phase schedules

  std::size_t n_active = 0;
  for (const BatchJobStatus& job : jobs) {
    if (job.active && job.remaining_work_s > 0.0) ++n_active;
  }
  if (n_active == 0) return 0.0;
  const double share = overload_batch_w / static_cast<double>(n_active);

  double floor_w = 0.0;
  for (const BatchJobStatus& job : jobs) {
    if (!job.active || job.remaining_work_s <= 0.0) continue;
    const workload::ProgressModel model(job.compute_fraction);
    // Progress rate the job will enjoy during overload windows.
    const double f_over = std::clamp(
        (share - job.constant_w) / std::max(job.gain_w_per_f, 1e-9),
        job.freq_min, job.freq_max);
    const double r_over = model.rate(f_over);
    // Required cycle-average rate to make the deadline (with safety).
    const double left = job.time_left_s * kDeadlineSafety;
    const double r_req = left > 0.0 ? job.remaining_work_s / left
                                    : model.rate(job.freq_max);
    // Rate the recovery phase must contribute.
    const double r_rec =
        std::clamp((r_req - alpha * r_over) / (1.0 - alpha), 0.0,
                   model.rate(job.freq_max));
    if (r_rec <= 0.0) {
      floor_w += job.constant_w;  // the core still carries its idle share
      continue;
    }
    // Invert rate -> frequency: frequency_for_deadline with unit work/time
    // ratio r_rec (f such that rate(f) == r_rec).
    const double f_rec =
        model.frequency_for_deadline(r_rec, 1.0, job.freq_min, job.freq_max);
    floor_w += job.gain_w_per_f * f_rec + job.constant_w;
  }
  return floor_w;
}

double PowerLoadAllocator::adapt(double t_since_start_s,
                                 const std::vector<BatchJobStatus>& jobs) {
  // (1) Deadline pressure: the hard floor under P_batch.
  deadline_floor_cache_w_ = deadline_floor_w(jobs);

  // (2) Interactive headroom: track the q-quantile of the window so the
  // interactive class rides the CB "most of the time" and the UPS only
  // covers the top tail of its fluctuation.
  if (!inter_window_.empty()) {
    std::vector<double> sorted = inter_window_;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                         std::floor(kInteractiveQuantile *
                                    static_cast<double>(sorted.size()))));
    const double target_headroom = sorted[idx];
    // Slow outer loop: limit the move per period so the MPC below always
    // converges before its target shifts again (Section V-C).
    const double max_step = kPBatchSlewFraction * config_.cb_rated_w;
    const double delta = std::clamp(target_headroom - interactive_headroom_w_,
                                    -max_step, max_step);
    interactive_headroom_w_ += delta;
    inter_window_.clear();
  }

  // (3) Recovery-phase floor: computed against the budget the jobs will
  // get during overload windows, so the cycle average lands on the
  // deadline pace (batch sprints on free CB energy, then throttles).
  const double overload_batch_w =
      std::min(std::max(std::max(0.0, config_.cb_overload_w() -
                                          interactive_headroom_w_),
                        deadline_floor_cache_w_),
               config_.cb_overload_w());
  recovery_floor_cache_w_ = recovery_floor_w(jobs, overload_batch_w);

  const AllocatorTargets now = targets(t_since_start_s);
  p_batch_w_ = now.p_batch_w;

  if (obs_ != nullptr) {
    obs_->events().emit(t_since_start_s, obs::EventType::kAllocatorDecision,
                        "adapt",
                        {{"p_cb_w", now.p_cb_w},
                         {"p_batch_w", now.p_batch_w},
                         {"deadline_floor_w", deadline_floor_cache_w_},
                         {"recovery_floor_w", recovery_floor_cache_w_},
                         {"headroom_w", interactive_headroom_w_},
                         {"overloading", now.overloading ? 1.0 : 0.0}});
    adaptations_->add();
  }
  return p_batch_w_;
}

void PowerLoadAllocator::set_obs(obs::ObsSink* sink) {
  obs_ = sink;
  adaptations_ = sink != nullptr
                     ? &sink->metrics().counter("allocator.adaptations")
                     : nullptr;
}

AllocatorTargets PowerLoadAllocator::targets(double t_since_start_s) const {
  AllocatorTargets out;
  out.p_cb_w = p_cb_at(t_since_start_s);
  out.overloading = overloading_at(t_since_start_s);
  const double headroom_based =
      std::max(0.0, out.p_cb_w - interactive_headroom_w_);
  // During overload windows the CB energy is free: give batch the whole
  // interactive-adjusted headroom (never less than the deadline pace).
  // During recovery, batch gets only what the deadline requires (plus any
  // headroom the interactive class genuinely leaves unused); the budget
  // can never exceed what the CB target itself provides.
  const double floor_now =
      out.overloading ? deadline_floor_cache_w_ : recovery_floor_cache_w_;
  out.p_batch_w = std::min(std::max(headroom_based, floor_now), out.p_cb_w);
  return out;
}

}  // namespace sprintcon::core
