#include "server/server.hpp"

#include <cmath>

#include "common/attributes.hpp"
#include "common/validation.hpp"

namespace sprintcon::server {

namespace {
// Fan thermal response time constant.
constexpr double kFanTauS = 8.0;
}  // namespace

Server::Server(const PlatformSpec& spec, std::vector<CpuCore> cores, Rng rng,
               const ThermalSpec& thermal)
    : spec_(spec),
      cores_(std::move(cores)),
      measurement_(spec),
      fan_(spec.fan_peak_power_w, kFanTauS, rng),
      thermal_spec_(thermal),
      core_temp_(cores_.size(), thermal.ambient_c),
      core_dyn_w_(cores_.size(), 0.0) {
  spec_.validate();
  thermal_spec_.validate();
  SPRINTCON_EXPECTS(cores_.size() == spec.cores_per_server,
                    "core count must match the platform spec");
}

SPRINTCON_HOT void Server::step(double dt_s, double now_s) {
  if (!powered_) {
    power_w_ = 0.0;
    inter_dyn_w_ = 0.0;
    batch_dyn_w_ = 0.0;
    fan_power_w_ = 0.0;
    return;
  }

  inter_dyn_w_ = 0.0;
  batch_dyn_w_ = 0.0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    CpuCore& core = cores_[i];
    core.step(dt_s, now_s);
    const double dyn =
        measurement_.core_dynamic_w(core.freq(), core.utilization());
    core_dyn_w_[i] = dyn;
    if (core.is_batch()) {
      batch_dyn_w_ += dyn;
    } else {
      inter_dyn_w_ += dyn;
    }
  }

  if (dt_s != thermal_cached_dt_s_) {
    // Same expression CoreThermalModel::step uses, so the SoA kernel
    // produces bit-identical temperatures.
    thermal_alpha_ = 1.0 - std::exp(-dt_s / thermal_spec_.time_constant_s);
    thermal_cached_dt_s_ = dt_s;
  }
  const double ambient = thermal_spec_.ambient_c;
  const double r_th = thermal_spec_.resistance_c_per_w;
  const double alpha = thermal_alpha_;
  for (std::size_t i = 0; i < core_temp_.size(); ++i) {
    const double target = ambient + r_th * core_dyn_w_[i];
    core_temp_[i] += alpha * (target - core_temp_[i]);
  }

  const double before_fan =
      measurement_.server_power_w(inter_dyn_w_ + batch_dyn_w_);
  fan_power_w_ =
      fan_.step(dt_s, before_fan, spec_.idle_power_w, spec_.peak_power_w);
  power_w_ = before_fan + fan_power_w_;
}

}  // namespace sprintcon::server
