#include "workload/interactive.hpp"

#include "common/validation.hpp"

namespace sprintcon::workload {

void InteractiveTraceConfig::validate() const {
  SPRINTCON_EXPECTS(mean_utilization >= 0.0 && mean_utilization <= 1.0,
                    "mean utilization must be in [0, 1]");
  SPRINTCON_EXPECTS(idle_utilization >= 0.0 && idle_utilization <= 1.0,
                    "idle utilization must be in [0, 1]");
  SPRINTCON_EXPECTS(ramp_up_s >= 0.0, "ramp-up must be non-negative");
  SPRINTCON_EXPECTS(noise_tau_s > 0.0, "noise tau must be positive");
  SPRINTCON_EXPECTS(noise_sigma >= 0.0, "noise sigma must be non-negative");
  SPRINTCON_EXPECTS(spike_decay_s > 0.0, "spike decay must be positive");
  SPRINTCON_EXPECTS(spike_rate_per_s >= 0.0,
                    "spike rate must be non-negative");
  SPRINTCON_EXPECTS(swell_period_s > 0.0, "swell period must be positive");
  for (std::size_t i = 1; i < envelope.size(); ++i) {
    SPRINTCON_EXPECTS(envelope[i].t_s > envelope[i - 1].t_s,
                      "envelope points must be sorted by time");
  }
  for (const EnvelopePoint& p : envelope) {
    SPRINTCON_EXPECTS(p.mean_utilization >= 0.0 && p.mean_utilization <= 1.0,
                      "envelope utilization must be in [0, 1]");
  }
}

InteractiveTraceGenerator::InteractiveTraceGenerator(
    const InteractiveTraceConfig& config, Rng rng, double phase_s)
    : config_(config), rng_(rng), phase_s_(phase_s),
      utilization_(config.idle_utilization) {
  config.validate();
}

}  // namespace sprintcon::workload
