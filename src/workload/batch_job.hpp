// A running batch job instance pinned to one core.
//
// Tracks execution progress under time-varying DVFS and exposes the
// quantities the SprintCon allocator and MPC penalty weighting need:
// progress, remaining work, deadline slack, and the R weight of
// Section V-B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/validation.hpp"
#include "workload/batch_profile.hpp"
#include "workload/progress_model.hpp"

namespace sprintcon::workload {

/// Completion policy when a job finishes before the simulation ends.
enum class CompletionMode {
  /// Re-execute immediately (the paper's 15-minute continuous traces).
  kRepeat,
  /// Run once; the core idles afterwards (the deadline experiments).
  kRunOnce,
};

/// One batch job bound to one core.
class BatchJob {
 public:
  /// @param profile     static benchmark character
  /// @param deadline_s  absolute deadline (simulation time)
  /// @param work_s      total work in seconds-at-peak; <= 0 uses the
  ///                    profile's nominal work
  /// @param mode        what happens on completion
  /// @param rng         stream for per-phase variation
  BatchJob(const BatchProfile& profile, double deadline_s, double work_s,
           CompletionMode mode, Rng rng);

  const std::string& name() const noexcept { return profile_.name; }
  const BatchProfile& profile() const noexcept { return profile_; }
  const ProgressModel& model() const noexcept { return model_; }
  CompletionMode mode() const noexcept { return mode_; }

  /// Advance by dt at the given normalized frequency. Returns the
  /// fraction of the interval the core was busy (utilization() after the
  /// step). Inline: every batch core calls it every tick from
  /// CpuCore::step (DESIGN.md §7.5).
  double advance(double dt_s, double freq, double now_s) {
    SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
    SPRINTCON_EXPECTS(freq > 0.0 && freq <= 1.0 + 1e-9,
                      "normalized frequency must be in (0, 1]");
    if (completed_ && mode_ == CompletionMode::kRunOnce) return 0.0;

    // Slow phase modulation so the utilization trace is not perfectly flat.
    phase_timer_s_ += dt_s;
    if (phase_timer_s_ >= kPhasePeriodS) {
      phase_timer_s_ = 0.0;
      phase_noise_ = std::clamp(rng_.normal(0.0, kPhaseSigma), -0.08, 0.08);
    }

    const double rate = model_.rate(freq);
    progress_ += rate * dt_s / work_total_s_;

    if (progress_ >= 1.0) {
      ++completions_;
      if (completion_time_s_ < 0.0) {
        // Linear back-interpolation of the actual completion instant.
        const double overshoot = (progress_ - 1.0) * work_total_s_ / rate;
        completion_time_s_ = now_s + dt_s - overshoot;
      }
      if (mode_ == CompletionMode::kRepeat) {
        progress_ -= 1.0;
        start_time_s_ = now_s + dt_s;
      } else {
        progress_ = 1.0;
        completed_ = true;
      }
    }

    return utilization();
  }

  // --- progress & deadline queries ---------------------------------------
  /// Fraction complete of the *current* execution, in [0, 1].
  double progress() const noexcept { return progress_; }
  bool completed() const noexcept { return completed_; }
  /// Number of full executions completed (kRepeat counts every pass).
  std::uint64_t completions() const noexcept { return completions_; }
  double deadline_s() const noexcept { return deadline_s_; }
  /// Simulation time when the first execution completed (negative until then).
  double completion_time_s() const noexcept { return completion_time_s_; }
  /// Remaining work of the current execution in seconds-at-peak.
  double remaining_work_s() const noexcept;

  /// The MPC control-penalty weight of Section V-B:
  ///   R = (1 - progress) / (time-left / (elapsed + time-left)).
  /// A job that is behind schedule gets a larger weight, pulling its core
  /// toward peak frequency. Returns 0 for completed kRunOnce jobs (their
  /// cores have nothing to speed up), and a large finite weight when the
  /// deadline has already passed.
  double penalty_weight(double now_s) const;

  /// Core utilization while the job runs (0 when a kRunOnce job is done).
  double utilization() const noexcept {
    if (completed_ && mode_ == CompletionMode::kRunOnce) return 0.0;
    return std::clamp(profile_.utilization * (1.0 + phase_noise_), 0.0, 1.0);
  }

 private:
  // Phase modulation: new utilization perturbation every ~20 s of execution.
  static constexpr double kPhasePeriodS = 20.0;
  static constexpr double kPhaseSigma = 0.03;

  BatchProfile profile_;
  ProgressModel model_;
  CompletionMode mode_;
  double work_total_s_;
  double deadline_s_;
  double progress_ = 0.0;
  bool completed_ = false;
  std::uint64_t completions_ = 0;
  double completion_time_s_ = -1.0;
  double start_time_s_ = 0.0;
  // Slow phase modulation of utilization.
  Rng rng_;
  double phase_noise_ = 0.0;
  double phase_timer_s_ = 0.0;
};

}  // namespace sprintcon::workload
