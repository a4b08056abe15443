// Server power controller (Section V of the paper).
//
// Every control period it executes the paper's four-step loop:
//   1. read the per-core monitors: interactive utilization (Eq. 5) and each
//      batch job's progress and deadline (the R weights);
//   2. compute the feedback power p_fb = p_total - p_inter (Eq. 6) and run
//      the MPC to get new frequencies for the batch cores (Eq. 7-9);
//   3. write the frequencies to the DVFS actuators;
//   4. pick up the latest P_batch from the power load allocator.
// Interactive cores are pinned at peak frequency throughout the sprint.
#pragma once

#include <vector>

#include "control/mpc.hpp"
#include "control/pid.hpp"
#include "control/rls.hpp"
#include "core/allocator.hpp"
#include "core/config.hpp"
#include "server/power_model.hpp"
#include "server/rack.hpp"

namespace sprintcon::core {

/// MPC-based controller for the batch cores of one rack.
class ServerPowerController {
 public:
  /// @param config  SprintCon configuration (MPC tuning, periods)
  /// @param rack    controlled rack (must outlive the controller)
  /// @param model   controller-side linear power model
  ServerPowerController(const SprintConfig& config, server::Rack& rack,
                        server::LinearPowerModel model);

  /// Estimate of the interactive power from utilization monitors (Eq. 5).
  double estimate_interactive_power_w() const;

  /// Run one control period.
  /// @param p_total_w       measured rack power (physical monitor)
  /// @param p_inter_w       estimate_interactive_power_w() at the rack's
  ///                        current state (the caller already has it)
  /// @param p_batch_target  P_batch from the allocator
  /// @param now_s           current simulation time (for R weights)
  void update(double p_total_w, double p_inter_w, double p_batch_target_w,
              double now_s);

  /// Cap every interactive core at max(freq_min, ratio * freq_max) (the
  /// bidding modes' interactive cap). Returns true when that moved at
  /// least one core's frequency.
  bool cap_interactive(double ratio);

  /// Pin every interactive core at peak frequency (start of sprint).
  /// Returns true when that moved at least one core's frequency.
  bool pin_interactive_at_peak() { return cap_interactive(1.0); }

  /// Force every batch core to a fixed frequency (sprint end / fallback).
  void force_batch_frequency(double freq);

  /// Re-write the frequencies of the last update to the DVFS actuators —
  /// the recovery engine's L0 "re-issue the command" action against a
  /// transiently wedged actuator. No-op before the first update.
  void reissue_last_command();

  /// Degrade from the MPC to a uniform-frequency PI loop on the same
  /// p_fb feedback (L1 of the recovery ladder: a solver or model fault
  /// should not take batch control down with it). The handover is
  /// bumpless — the PI integrator is preloaded so its first output
  /// matches the current mean batch frequency. Leaving fallback resets
  /// the MPC warm start.
  void set_pid_fallback(bool on);
  bool pid_fallback() const noexcept { return pid_fallback_; }

  /// Feedback power used in the last update (Eq. 6).
  double last_p_fb_w() const noexcept { return last_p_fb_w_; }
  /// Diagnostics of the last MPC solve.
  const control::MpcOutput& last_output() const noexcept { return last_out_; }
  /// Gain currently used inside the MPC model (the offline model gain, or
  /// the RLS estimate when adaptive_gain is enabled).
  double effective_gain_w_per_f() const;

  /// Status snapshot of every batch job for the allocator.
  std::vector<BatchJobStatus> job_statuses(double now_s) const;

  const server::LinearPowerModel& model() const noexcept { return model_; }

  /// The rack's batch cores in Rack::batch_cores() order, resolved once at
  /// construction (the rack's layout is fixed for its lifetime).
  const std::vector<server::CpuCore*>& batch_cores() const noexcept {
    return batch_cores_;
  }
  /// Number of interactive cores in the rack.
  std::size_t num_interactive_cores() const noexcept {
    return interactive_cores_.size();
  }

  /// Attach an observability sink (forwarded to the MPC profiling hooks;
  /// also enables the dvfs_actuate span and the commanded-frequency gauge
  /// the HealthMonitor compares against realized frequencies).
  void set_obs(obs::ObsSink* sink) {
    obs_ = sink;
    cmd_freq_ = nullptr;
    mpc_.set_obs(sink);
  }

 private:
  SprintConfig config_;
  server::Rack& rack_;
  std::vector<server::CpuCore*> batch_cores_;
  /// One interactive core and the server it sits on (Eq. 5 reads the
  /// server's power state).
  struct InteractiveCoreRef {
    const server::Server* server;
    server::CpuCore* core;
  };
  /// The rack's interactive cores in rack order (server by server, core by
  /// core), resolved once at construction like batch_cores_; the Eq. 5
  /// estimate sums in this order.
  std::vector<InteractiveCoreRef> interactive_cores_;
  server::LinearPowerModel model_;
  control::MpcPowerController mpc_;
  control::GainEstimator gain_estimator_;
  control::MpcProblem problem_;  ///< reused across updates (no realloc)
  control::MpcOutput last_out_;
  obs::ObsSink* obs_ = nullptr;
  /// `control.cmd_batch_freq`, looked up on first publish and cached.
  obs::Gauge* cmd_freq_ = nullptr;
  /// Publish the mean batch frequency this controller just commanded.
  void record_commanded_freq();
  /// PI-fallback control period (replaces the MPC solve + actuation).
  void update_pid(double p_fb_w, double p_batch_target_w);
  bool pid_fallback_ = false;
  bool pid_primed_ = false;  ///< integrator preloaded for bumpless entry
  control::PiController pid_{control::PidConfig{}};
  double last_p_fb_w_ = 0.0;
  /// State for the adaptive-gain observation: the frequency sum we applied
  /// last period and the feedback power we saw before applying it.
  double prev_freq_sum_ = -1.0;
  double prev_p_fb_w_ = 0.0;
  /// Relative scale of the control penalty vs. the tracking term: R_j =
  /// weight_j * penalty_scale * K_j^2. Small values keep budget tracking
  /// dominant while the weights still decide the power distribution.
  double penalty_scale_ = 0.02;
};

}  // namespace sprintcon::core
