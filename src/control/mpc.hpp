// Model-predictive power controller (Section V of the paper).
//
// Controls the aggregate power of the cores running batch workloads to a
// budget P_batch by choosing per-core DVFS frequencies. Each control period
// the controller
//   1. builds the reference trajectory p_r(t+x|t) = P_batch -
//      e^{-(T/tau_r) x} (P_batch - p_fb(t))                     (Eq. 7)
//   2. minimizes the tracking error + control penalty cost      (Eq. 8)
//      subject to per-core frequency bounds                     (Eq. 9)
//   3. applies the first step of the optimal frequency plan.
//
// The decision variables are parameterized as the absolute frequency
// vectors at each control-horizon step (prefix sums of the paper's
// Delta-F), which turns the frequency bounds into a plain box and the cost
// into a convex QP, solved through the O(n Lc) structured operator of
// structured_qp.hpp (the Hessian is diag(R) + c_b k k^T per control block).
//
// The tracking weight Q is uniform and equal to 1, so it drops out of the
// cost. The control penalty weight R_j per core implements the paper's
// progress balancing: R_j = remaining-progress / normalized-remaining-time,
// so jobs that are behind schedule are pulled harder toward peak frequency.
#pragma once

#include <cstddef>

#include "control/structured_qp.hpp"
#include "obs/sink.hpp"

namespace sprintcon::control {

/// Static tuning of the MPC loop.
struct MpcConfig {
  std::size_t prediction_horizon = 8;  ///< L_p, >= control_horizon
  std::size_t control_horizon = 2;     ///< L_c, >= 1
  double control_period_s = 2.0;       ///< T, seconds between invocations
  double reference_time_constant_s = 4.0;  ///< tau_r of Eq. 7
};

/// Per-invocation problem data.
struct MpcProblem {
  /// Power gain of each actuated core: dP/df in watts per unit of
  /// normalized frequency (the controller's linear model, Eq. 4).
  Vector gains_w_per_f;
  /// Current normalized frequency of each actuated core.
  Vector freq_current;
  Vector freq_min;  ///< per-core lower bound (Eq. 9)
  Vector freq_max;  ///< per-core upper bound (Eq. 9)
  /// Control-penalty weight per core (progress balancing; must be > 0).
  Vector penalty_weights;
  double power_feedback_w = 0.0;  ///< p_fb(t), Eq. 6
  double power_target_w = 0.0;    ///< P_batch
};

/// Result of one control step.
struct MpcOutput {
  Vector freq_next;    ///< frequencies to apply in the next period
  double predicted_power_w = 0.0;  ///< model-predicted p_batch(t+1)
  QpResult qp;         ///< solver diagnostics
};

/// MPC instance; stateless between invocations except for the warm start
/// and reusable solver scratch.
class MpcPowerController {
 public:
  explicit MpcPowerController(const MpcConfig& config);

  const MpcConfig& config() const noexcept { return config_; }

  /// Run one control period: solve the constrained QP and write the
  /// frequency vector for the next period into `out`, reusing its vector
  /// capacity. A warm-started controller stepping a fixed-size problem
  /// performs zero steady-state heap allocations.
  void step(const MpcProblem& problem, MpcOutput& out);

  /// Reset the warm-start state (e.g. when the actuated core set changes).
  void reset() noexcept { warm_start_.clear(); }

  /// Classes of bitwise-equal cores (gain, penalty weight and frequency
  /// bounds) in the last step's partition.
  std::size_t num_classes() const noexcept { return sqp_.num_classes(); }

  /// Attach an observability sink (nullptr detaches). Metric handles are
  /// resolved here once; with a sink attached each step() adds counter
  /// updates and a steady_clock read, without one detached it costs a
  /// single branch.
  void set_obs(obs::ObsSink* sink);

 private:
  /// Check the problem in one pass over the cores that also returns
  /// K . F(t), and keep the class partition of the cores while every core
  /// still matches its class and no two classes match; else rebuild it.
  double check_problem(const MpcProblem& problem);
  void step_structured(const MpcProblem& problem, double k_dot_f,
                       MpcOutput& out);
  /// Fill `reference_` (Eq. 7) and return the constant part of the power
  /// prediction p_fb(t) - K . F(t).
  double build_reference(const MpcProblem& problem, double k_dot_f);

  MpcConfig config_;
  /// e^{-T/tau_r} of Eq. 7; the config is fixed, so computed once.
  double reference_decay_ = 0.0;
  Vector warm_start_;
  // Controller-owned solver scratch; sized on first use
  // and reused verbatim while the problem shape is unchanged.
  Vector reference_;
  /// The QP over classes of bitwise-equal cores, with its partition.
  StructuredClassQp sqp_;
  StructuredQpScratch sqp_scratch_;

  // Observability (optional). Handles cached by set_obs.
  struct ObsHandles {
    obs::Counter* solves_structured = nullptr;
    obs::Counter* qp_iterations = nullptr;
    obs::Counter* qp_direct_passes = nullptr;
    obs::Counter* qp_restarts = nullptr;
    obs::Counter* qp_not_converged = nullptr;
    obs::Histogram* exit_residual = nullptr;
    obs::Histogram* step_us = nullptr;
  };
  obs::ObsSink* obs_ = nullptr;
  ObsHandles met_;
};

}  // namespace sprintcon::control
