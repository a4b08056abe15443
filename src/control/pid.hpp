// Discrete PI controller with anti-windup.
//
// Used by the ablation study (bench/ablation_mpc_vs_pi) as the classical
// alternative to the MPC server power controller, and available to
// downstream users who want a simpler loop.
#pragma once

namespace sprintcon::control {

/// Gains and limits for a discrete-time PI controller.
struct PidConfig {
  double kp = 0.0;
  double ki = 0.0;
  double output_min = 0.0;
  double output_max = 1.0;
};

/// Textbook discrete PI loop: u = clamp(kp * e + ki * integral(e)), with
/// back-calculation anti-windup that fully bleeds the integrator by the
/// amount the output saturated.
class PiController {
 public:
  explicit PiController(const PidConfig& config);

  /// One control period: error = setpoint - measurement; dt in seconds.
  double step(double setpoint, double measurement, double dt_s);

  void reset() noexcept { integral_ = 0.0; }
  double integral() const noexcept { return integral_; }

  /// Seed the integrator so that, at zero error, step() reproduces
  /// output `u` — bumpless transfer when this loop takes over from
  /// another controller mid-run. No-op when ki is 0 (no integrator).
  void preload_output(double u) noexcept;

 private:
  PidConfig config_;
  double integral_ = 0.0;
};

}  // namespace sprintcon::control
