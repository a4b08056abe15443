// One simulated server: cores + fan + ground-truth power measurement.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "server/cpu_core.hpp"
#include "server/fan.hpp"
#include "server/power_model.hpp"

namespace sprintcon::server {

/// A server aggregates its cores' power through the measurement model and
/// adds idle and fan power. It can be powered off (the outage that ends
/// the uncontrolled-sprinting experiment, Fig. 5).
class Server {
 public:
  /// @param spec   platform calibration (validated)
  /// @param cores  the server's cores (moved in; size must equal
  ///               spec.cores_per_server)
  /// @param rng    stream for the fan's ambient drift
  Server(const PlatformSpec& spec, std::vector<CpuCore> cores, Rng rng);

  const PlatformSpec& spec() const noexcept { return spec_; }

  std::vector<CpuCore>& cores() noexcept { return cores_; }
  const std::vector<CpuCore>& cores() const noexcept { return cores_; }

  /// Attach one shared thermal model to every core, storing per-core
  /// junction temperatures in a server-owned SoA array that step()
  /// advances as a single elementwise kernel (cache-friendly, one cached
  /// exp per dt). Bit-identical to stepping one CoreThermalModel
  /// (tests/support/server/core_thermal.hpp) per core with the core's
  /// dynamic power. Must be called once the server has reached its final
  /// address (cores keep raw pointers into this object).
  /// Without it the cores read ambient and never throttle.
  void attach_thermal(const ThermalSpec& spec);

  /// Advance all cores and the fan by dt. No-op when powered off.
  /// Hot path (SPRINTCON_HOT): the SoA thermal kernel runs in here.
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

  /// Mean normalized frequency by class, as seen by the frequency metric:
  /// a powered-off server reports 0 (the collapse in Fig. 5(b)).
  double mean_freq(CoreRole role) const;

  std::size_t count(CoreRole role) const;

 private:
  PlatformSpec spec_;
  std::vector<CpuCore> cores_;
  MeasurementPowerModel measurement_;
  FanModel fan_;
  // SoA thermal state; core_temp_ is empty until attach_thermal.
  ThermalSpec thermal_spec_{};
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
