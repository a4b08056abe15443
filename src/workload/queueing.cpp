#include "workload/queueing.hpp"

#include "common/validation.hpp"

namespace sprintcon::workload {

LatencyModel::LatencyModel(double service_rate_peak)
    : service_rate_peak_(service_rate_peak) {
  SPRINTCON_EXPECTS(service_rate_peak > 0.0,
                    "service rate must be positive");
}

double LatencyModel::percentile_response_s(double freq,
                                           double peak_utilization,
                                           double p) const {
  SPRINTCON_EXPECTS(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
  const double mean = mean_response_s(freq, peak_utilization);
  if (std::isinf(mean)) return mean;
  return mean * quantile_factor(p);
}

}  // namespace sprintcon::workload
