#include "control/rls.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::control {

GainEstimator::GainEstimator(double prior_gain, double min_ratio,
                             double max_ratio, double forgetting)
    : prior_(prior_gain),
      min_ratio_(min_ratio),
      max_ratio_(max_ratio),
      forgetting_(forgetting) {
  SPRINTCON_EXPECTS(prior_gain > 0.0, "prior gain must be positive");
  SPRINTCON_EXPECTS(min_ratio > 0.0 && min_ratio <= 1.0 && max_ratio >= 1.0,
                    "clamp ratios must bracket 1");
  SPRINTCON_EXPECTS(forgetting > 0.0 && forgetting <= 1.0,
                    "forgetting factor must be in (0, 1]");
}

void GainEstimator::observe(double delta_freq_sum, double delta_power_w) {
  // A move below ~1% of a core's range is indistinguishable from
  // measurement noise; skip it.
  if (std::abs(delta_freq_sum) < 0.01) return;
  // Standard RLS with x = delta_freq_sum, y = delta_power_w:
  //   k = P x / (lambda + x P x)
  //   theta += k (y - theta x)
  //   P = (P - k P x) / lambda
  // Divisions are multiplications by the reciprocal, in this order: the
  // pinned adaptive-gain figure depends on these exact bits.
  const double x = delta_freq_sum;
  const double px = covariance_ * x;
  const double denom = forgetting_ + x * px;
  SPRINTCON_ENSURES(denom > 0.0, "RLS covariance lost positivity");
  const double k = px * (1.0 / denom);
  theta_ += k * (delta_power_w - theta_ * x);
  covariance_ = (covariance_ - k * px) * (1.0 / forgetting_);
  ++observations_;
}

double GainEstimator::gain() const {
  if (observations_ < 5) return prior_;
  return std::clamp(theta_, prior_ * min_ratio_, prior_ * max_ratio_);
}

}  // namespace sprintcon::control
