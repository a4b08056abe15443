// Interactive request latency model (M/M/1).
//
// The paper measures interactive performance via processor frequency
// (Fig. 7): since interactive cores run a request stream, frequency maps
// to service rate and hence to response time. This module makes that
// mapping explicit so the evaluation can report *latency*, not just
// clock speed: each interactive core is an M/M/1 station whose service
// rate scales linearly with core frequency,
//
//     mu(f) = mu_peak * f,      lambda = u_peak * mu_peak,
//
// where u_peak is the measured utilization at peak frequency (what the
// simulator's utilization monitors report during a sprint). Throttling a
// core (frequency f < 1) raises its effective load rho = u_peak / f; at
// rho >= 1 the queue saturates and the response time diverges — exactly
// why the paper keeps interactive cores at peak frequency.
//
// M/M/1 response time is exponentially distributed with rate mu - lambda,
// giving closed forms for the mean and any percentile.
#pragma once

#include <cmath>
#include <limits>

#include "common/validation.hpp"

namespace sprintcon::workload {

/// Latency analysis for one interactive core.
class LatencyModel {
 public:
  /// @param service_rate_peak  requests/s the core serves at peak clock
  explicit LatencyModel(double service_rate_peak = 1000.0);

  double service_rate_peak() const noexcept { return service_rate_peak_; }

  /// Effective load rho at frequency `freq` given the utilization measured
  /// at peak frequency. Can exceed 1 (saturation). Inline, like
  /// mean_response_s: Rack::telemetry calls both per interactive core per
  /// tick.
  double effective_load(double freq, double peak_utilization) const {
    SPRINTCON_EXPECTS(freq > 0.0 && freq <= 1.0 + 1e-9,
                      "normalized frequency must be in (0, 1]");
    SPRINTCON_EXPECTS(
        peak_utilization >= 0.0 && peak_utilization <= 1.0 + 1e-9,
        "utilization must be in [0, 1]");
    return peak_utilization / freq;
  }

  /// Mean response time in seconds; +infinity when saturated (rho >= 1).
  double mean_response_s(double freq, double peak_utilization) const {
    const double rho = effective_load(freq, peak_utilization);
    if (rho >= 1.0) return std::numeric_limits<double>::infinity();
    const double mu = service_rate_peak_ * freq;
    const double lambda = peak_utilization * service_rate_peak_;
    return 1.0 / (mu - lambda);
  }

  /// The p-quantile of the response time as a multiple of its mean: the
  /// M/M/1 response time is Exp(mu - lambda), so the factor is -ln(1 - p)
  /// and the p-quantile is mean_response_s * quantile_factor(p)
  /// (+infinity when saturated). Rack::telemetry's p95 uses it.
  static double quantile_factor(double p) { return -std::log(1.0 - p); }

 private:
  double service_rate_peak_;
};

}  // namespace sprintcon::workload
