// One core's first-order thermal model, stepped on its own: the reference
// the server's structure-of-arrays thermal kernel (Server::step) is
// tested against bit for bit.
#pragma once

#include "server/thermal.hpp"

namespace sprintcon::server {

/// First-order thermal state of one core.
class CoreThermalModel {
 public:
  explicit CoreThermalModel(const ThermalSpec& spec);

  const ThermalSpec& spec() const noexcept { return spec_; }

  /// Advance by dt under the given core power draw.
  void step(double power_w, double dt_s);

  double temperature_c() const noexcept { return temperature_c_; }
  /// Steady-state temperature this power level would reach.
  double steady_state_c(double power_w) const noexcept {
    return spec_.ambient_c + spec_.resistance_c_per_w * power_w;
  }
  bool above_throttle() const noexcept {
    return temperature_c_ >= spec_.throttle_temp_c;
  }
  bool critical() const noexcept {
    return temperature_c_ >= spec_.critical_temp_c;
  }

  /// Sustainable core power: the draw whose steady state sits exactly at
  /// the throttle temperature.
  double sustainable_power_w() const noexcept {
    return (spec_.throttle_temp_c - spec_.ambient_c) /
           spec_.resistance_c_per_w;
  }

 private:
  ThermalSpec spec_;
  double temperature_c_;
  // First-order update coefficient for the last dt seen. dt is constant
  // across a fixed-step run, so this avoids one exp per core per tick;
  // the cached value is produced by the identical expression, keeping
  // results bit-identical.
  double cached_dt_s_ = -1.0;
  double alpha_ = 0.0;
};

}  // namespace sprintcon::server
