#include "workload/request_queue.hpp"

#include "common/validation.hpp"

namespace sprintcon::workload {

RequestQueueSource::RequestQueueSource(const RequestQueueConfig& config,
                                       Rng rng, double phase_s)
    : offered_(config.offered_load, rng, phase_s),
      service_rate_peak_(config.service_rate_peak),
      max_backlog_(config.max_backlog) {
  SPRINTCON_EXPECTS(config.service_rate_peak > 0.0,
                    "service rate must be positive");
  SPRINTCON_EXPECTS(config.max_backlog > 0.0, "backlog cap must be positive");
}

void RequestQueueSource::set_load_scale(double scale) {
  SPRINTCON_EXPECTS(scale >= 0.0, "load scale must be >= 0");
  load_scale_ = scale;
}

}  // namespace sprintcon::workload
