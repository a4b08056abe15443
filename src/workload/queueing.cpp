#include "workload/queueing.hpp"

#include <cmath>
#include <limits>

#include "common/validation.hpp"

namespace sprintcon::workload {

LatencyModel::LatencyModel(double service_rate_peak)
    : service_rate_peak_(service_rate_peak) {
  SPRINTCON_EXPECTS(service_rate_peak > 0.0,
                    "service rate must be positive");
}

double LatencyModel::effective_load(double freq,
                                    double peak_utilization) const {
  SPRINTCON_EXPECTS(freq > 0.0 && freq <= 1.0 + 1e-9,
                    "normalized frequency must be in (0, 1]");
  SPRINTCON_EXPECTS(peak_utilization >= 0.0 && peak_utilization <= 1.0 + 1e-9,
                    "utilization must be in [0, 1]");
  return peak_utilization / freq;
}

double LatencyModel::mean_response_s(double freq,
                                     double peak_utilization) const {
  const double rho = effective_load(freq, peak_utilization);
  if (rho >= 1.0) return std::numeric_limits<double>::infinity();
  const double mu = service_rate_peak_ * freq;
  const double lambda = peak_utilization * service_rate_peak_;
  return 1.0 / (mu - lambda);
}

double LatencyModel::percentile_response_s(double freq,
                                           double peak_utilization,
                                           double p) const {
  SPRINTCON_EXPECTS(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
  const double mean = mean_response_s(freq, peak_utilization);
  if (std::isinf(mean)) return mean;
  // M/M/1 response time ~ Exp(mu - lambda): quantile = mean * -ln(1 - p).
  return mean * -std::log(1.0 - p);
}

}  // namespace sprintcon::workload
