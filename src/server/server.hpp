// One simulated server: cores + fan + ground-truth power measurement +
// the cores' junction temperatures.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "server/cpu_core.hpp"
#include "server/fan.hpp"
#include "server/power_model.hpp"
#include "server/thermal.hpp"

namespace sprintcon::server {

/// A server aggregates its cores' power through the measurement model and
/// adds idle and fan power. It can be powered off (the outage that ends
/// the uncontrolled-sprinting experiment, Fig. 5).
class Server {
 public:
  /// @param spec     platform calibration (validated)
  /// @param cores    the server's cores (moved in; size must equal
  ///                 spec.cores_per_server)
  /// @param rng      stream for the fan's ambient drift
  /// @param thermal  one thermal calibration shared by every core
  ///                 (validated); the cores start at its ambient
  Server(const PlatformSpec& spec, std::vector<CpuCore> cores, Rng rng,
         const ThermalSpec& thermal = ThermalSpec{});

  const PlatformSpec& spec() const noexcept { return spec_; }

  std::vector<CpuCore>& cores() noexcept { return cores_; }
  const std::vector<CpuCore>& cores() const noexcept { return cores_; }

  /// Junction temperature of core `i`. The server owns every core's
  /// temperature as one SoA array that step() advances in a single
  /// elementwise kernel, bit-identical to stepping one CoreThermalModel
  /// (tests/support/server/core_thermal.hpp) per core with the core's
  /// dynamic power.
  double core_temp_c(std::size_t i) const noexcept { return core_temp_[i]; }
  /// True when core `i` runs hot enough that the controller must back off.
  bool core_throttled(std::size_t i) const noexcept {
    return core_temp_[i] >= thermal_spec_.throttle_temp_c;
  }

  /// Advance all cores, their temperatures and the fan by dt. No-op when
  /// powered off. Hot path (SPRINTCON_HOT).
  void step(double dt_s, double now_s);

  /// Ground-truth total power over the last interval (0 when off).
  double power_w() const noexcept { return power_w_; }
  /// Ground-truth dynamic power split by class (diagnostics / metrics).
  double interactive_dynamic_w() const noexcept { return inter_dyn_w_; }
  double batch_dynamic_w() const noexcept { return batch_dyn_w_; }
  double fan_power_w() const noexcept { return fan_power_w_; }

  bool powered() const noexcept { return powered_; }
  /// Power the server on/off. Powering off zeroes consumption and halts
  /// all progress; powering on resumes with the previous DVFS settings.
  void set_powered(bool on) noexcept { powered_ = on; }

 private:
  PlatformSpec spec_;
  std::vector<CpuCore> cores_;
  MeasurementPowerModel measurement_;
  FanModel fan_;
  // SoA thermal state, one slot per core.
  ThermalSpec thermal_spec_;
  std::vector<double> core_temp_;
  std::vector<double> core_dyn_w_;
  double thermal_cached_dt_s_ = -1.0;
  double thermal_alpha_ = 0.0;
  bool powered_ = true;
  double power_w_ = 0.0;
  double inter_dyn_w_ = 0.0;
  double batch_dyn_w_ = 0.0;
  double fan_power_w_ = 0.0;
};

}  // namespace sprintcon::server
