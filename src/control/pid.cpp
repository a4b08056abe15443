#include "control/pid.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::control {

PiController::PiController(const PidConfig& config) : config_(config) {
  SPRINTCON_EXPECTS(config.output_min <= config.output_max,
                    "PI output bounds crossed");
}

void PiController::preload_output(double u) noexcept {
  if (config_.ki == 0.0) return;
  integral_ =
      std::clamp(u, config_.output_min, config_.output_max) / config_.ki;
}

double PiController::step(double setpoint, double measurement, double dt_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "control period must be positive");
  const double error = setpoint - measurement;
  integral_ += error * dt_s;

  const double raw = config_.kp * error + config_.ki * integral_;
  const double clamped =
      std::clamp(raw, config_.output_min, config_.output_max);

  // Back-calculation anti-windup: bleed the integrator by the amount the
  // output saturated so the loop recovers promptly when the error reverses.
  if (config_.ki != 0.0 && raw != clamped) {
    integral_ += (clamped - raw) / config_.ki;
  }
  return clamped;
}

}  // namespace sprintcon::control
