#include "baselines/power_cap.hpp"

namespace sprintcon::baselines {

namespace {

control::PidConfig cap_gains(const core::SprintConfig& config,
                             const server::Rack& rack) {
  // Output is the uniform normalized frequency. Scale the gains by the
  // rack's approximate watts-per-unit-frequency so the loop behaves the
  // same at any rack size.
  double total_cores = 0.0;
  for (const auto& s : rack.servers())
    total_cores += static_cast<double>(s.cores().size());
  const double watts_per_f = 18.0 * total_cores;  // rough rack-level gain

  control::PidConfig pid;
  pid.kp = 0.2 / watts_per_f;
  pid.ki = 0.4 / watts_per_f;
  pid.output_min = rack.servers().front().spec().freq_min;
  pid.output_max = rack.servers().front().spec().freq_max;
  (void)config;
  return pid;
}

}  // namespace

PowerCapController::PowerCapController(const core::SprintConfig& config,
                                       server::Rack& rack,
                                       power::PowerPath& path)
    : config_(config),
      rack_(rack),
      path_(path),
      pi_(cap_gains(config, rack)),
      freq_(rack.servers().front().spec().freq_min) {
  config.validate();
}

void PowerCapController::step(const sim::SimClock& clock) {
  const double p_total = rack_.total_power_w();

  if (clock.every(config_.mpc.control_period_s)) {
    // Classic capping leaves a small guard band below the rating so the
    // breaker never integrates heat.
    const double setpoint = 0.98 * config_.cb_rated_w;
    freq_ = pi_.step(setpoint, p_total, config_.mpc.control_period_s);
    rack_.for_each_core(server::CoreRole::kInteractive,
                        [this](server::CpuCore& c) { c.set_freq(freq_); });
    rack_.for_each_core(server::CoreRole::kBatch, [this](server::CpuCore& c) {
      c.set_freq(c.job()->completed() ? c.freq_min() : freq_);
    });
  }

  // No sprinting: the UPS is never discharged on purpose.
  path_.step(p_total, 0.0, clock.dt_s());
}

}  // namespace sprintcon::baselines
