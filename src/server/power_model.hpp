// Server power models (Section V-A of the paper).
//
// Two models coexist on purpose:
//
//  * MeasurementPowerModel — the "ground truth" used by the simulated
//    power monitors. Per-core dynamic power depends on both frequency and
//    utilization, p_core = u * (alpha f + gamma f^3), following the
//    multi-mode model of Horvath & Skadron [29]; the server adds idle power
//    and a fan term. This is what the rack's physical power meter reads.
//
//  * LinearPowerModel — the simplified model *inside* the controller:
//    p_i = K_i f_i + C_i (Eq. 2), with constant nominal utilization and no
//    fan. The gap between the two models is exactly the modeling error the
//    paper's feedback design is meant to absorb (Section V-C).
#pragma once

#include "common/validation.hpp"
#include "server/platform.hpp"

namespace sprintcon::server {

/// Ground-truth per-core power (frequency and utilization dependent).
class MeasurementPowerModel {
 public:
  explicit MeasurementPowerModel(const PlatformSpec& spec);

  /// Dynamic power of one core at normalized frequency f, utilization u.
  /// Inline: Server::step calls it for every core every tick.
  double core_dynamic_w(double freq, double utilization) const {
    SPRINTCON_EXPECTS(freq >= 0.0 && freq <= 1.0 + 1e-9,
                      "normalized frequency must be in [0, 1]");
    SPRINTCON_EXPECTS(utilization >= 0.0 && utilization <= 1.0 + 1e-9,
                      "utilization must be in [0, 1]");
    return utilization *
           (linear_coeff_w_ * freq + cubic_coeff_w_ * freq * freq * freq);
  }

  /// Full-server power for aggregate core states, excluding the fan.
  /// @param sum_dynamic_w  precomputed sum of core_dynamic_w over cores
  double server_power_w(double sum_dynamic_w) const noexcept {
    return spec_.idle_power_w + sum_dynamic_w;
  }

  const PlatformSpec& spec() const noexcept { return spec_; }

 private:
  PlatformSpec spec_;
  // The spec's derived coefficients, computed once here rather than with
  // a division per core per tick (same expressions, so the same bits).
  double linear_coeff_w_;
  double cubic_coeff_w_;
};

/// Controller-side linear model p = K f + C per core (Eq. 1/2).
class LinearPowerModel {
 public:
  /// @param spec platform calibration
  /// @param nominal_utilization  assumed constant utilization (Section V-A
  ///        fixes u to make power linear in f)
  /// @param linearization_freq   frequency around which the slope K is
  ///        taken (the measurement model is mildly nonlinear in f)
  LinearPowerModel(const PlatformSpec& spec, double nominal_utilization = 0.95,
                   double linearization_freq = 0.7);

  /// Slope K for one core: dP/df in watts per unit normalized frequency.
  double gain_w_per_f() const noexcept { return gain_w_per_f_; }

  /// Frequency-independent per-core constant C (idle share).
  double constant_w() const noexcept { return constant_w_; }

  /// Linear-model prediction for one core.
  double core_power_w(double freq) const noexcept {
    return gain_w_per_f_ * freq + constant_w_;
  }

  /// Interactive-core model (Eq. 5): power at peak frequency as a linear
  /// function of utilization, p = K' u + C'.
  double interactive_gain_w_per_util() const noexcept {
    return interactive_gain_w_;
  }
  double interactive_power_w(double utilization) const noexcept {
    return interactive_gain_w_ * utilization + constant_w_;
  }

 private:
  double gain_w_per_f_;
  double constant_w_;
  double interactive_gain_w_;
};

}  // namespace sprintcon::server
