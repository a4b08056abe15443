#include "server/core_thermal.hpp"

#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::server {

CoreThermalModel::CoreThermalModel(const ThermalSpec& spec)
    : spec_(spec), temperature_c_(spec.ambient_c) {
  spec.validate();
}

void CoreThermalModel::step(double power_w, double dt_s) {
  SPRINTCON_EXPECTS(power_w >= 0.0, "core power must be non-negative");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  const double target = steady_state_c(power_w);
  if (dt_s != cached_dt_s_) {
    alpha_ = 1.0 - std::exp(-dt_s / spec_.time_constant_s);
    cached_dt_s_ = dt_s;
  }
  temperature_c_ += alpha_ * (target - temperature_c_);
}

}  // namespace sprintcon::server
