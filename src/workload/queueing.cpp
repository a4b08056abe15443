#include "workload/queueing.hpp"

#include "common/validation.hpp"

namespace sprintcon::workload {

LatencyModel::LatencyModel(double service_rate_peak)
    : service_rate_peak_(service_rate_peak) {
  SPRINTCON_EXPECTS(service_rate_peak > 0.0,
                    "service rate must be positive");
}

}  // namespace sprintcon::workload
