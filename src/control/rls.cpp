#include "control/rls.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::control {

RecursiveLeastSquares::RecursiveLeastSquares(std::size_t dim,
                                             double forgetting, double p0)
    : forgetting_(forgetting),
      theta_(dim, 0.0),
      covariance_(Matrix::identity(dim) * p0) {
  SPRINTCON_EXPECTS(dim > 0, "RLS needs at least one parameter");
  SPRINTCON_EXPECTS(forgetting > 0.0 && forgetting <= 1.0,
                    "forgetting factor must be in (0, 1]");
  SPRINTCON_EXPECTS(p0 > 0.0, "initial covariance must be positive");
}

void RecursiveLeastSquares::update(const Vector& x, double y) {
  SPRINTCON_EXPECTS(x.size() == theta_.size(), "RLS regressor size mismatch");
  // Standard RLS:
  //   k = P x / (lambda + x' P x)
  //   theta += k (y - theta' x)
  //   P = (P - k x' P) / lambda
  const Vector px = covariance_ * x;
  const double denom = forgetting_ + dot(x, px);
  SPRINTCON_ENSURES(denom > 0.0, "RLS covariance lost positivity");
  const Vector k = scale(px, 1.0 / denom);
  const double innovation = y - dot(theta_, x);
  for (std::size_t i = 0; i < theta_.size(); ++i)
    theta_[i] += k[i] * innovation;

  Matrix kxP(theta_.size(), theta_.size());
  for (std::size_t r = 0; r < theta_.size(); ++r)
    for (std::size_t c = 0; c < theta_.size(); ++c)
      kxP(r, c) = k[r] * px[c];
  covariance_ = (covariance_ - kxP) * (1.0 / forgetting_);
  ++observations_;
}

GainEstimator::GainEstimator(double prior_gain, double min_ratio,
                             double max_ratio, double forgetting)
    : prior_(prior_gain),
      min_ratio_(min_ratio),
      max_ratio_(max_ratio),
      rls_(1, forgetting) {
  SPRINTCON_EXPECTS(prior_gain > 0.0, "prior gain must be positive");
  SPRINTCON_EXPECTS(min_ratio > 0.0 && min_ratio <= 1.0 && max_ratio >= 1.0,
                    "clamp ratios must bracket 1");
}

void GainEstimator::observe(double delta_freq_sum, double delta_power_w) {
  // A move below ~1% of a core's range is indistinguishable from
  // measurement noise; skip it.
  if (std::abs(delta_freq_sum) < 0.01) return;
  rls_.update({delta_freq_sum}, delta_power_w);
}

double GainEstimator::gain() const {
  if (rls_.observations() < 5) return prior_;
  const double estimate = rls_.theta()[0];
  return std::clamp(estimate, prior_ * min_ratio_, prior_ * max_ratio_);
}

}  // namespace sprintcon::control
