// Recursive least squares with exponential forgetting.
//
// Used for online plant-model estimation: the server power controller can
// estimate the true aggregate power gain dP/df from the (delta-frequency,
// delta-power) pairs it observes every control period, instead of trusting
// the offline linear model. Scalar and small-vector problems only — the
// covariance update is O(dim^2).
#pragma once

#include "control/matrix.hpp"

namespace sprintcon::control {

/// y = theta^T x estimator with forgetting factor.
class RecursiveLeastSquares {
 public:
  /// @param dim         number of parameters
  /// @param forgetting  lambda in (0, 1]; smaller forgets faster
  /// @param p0          initial covariance scale (large = uninformative)
  explicit RecursiveLeastSquares(std::size_t dim, double forgetting = 0.98,
                                 double p0 = 1e4);

  /// Incorporate one observation pair (x, y).
  void update(const Vector& x, double y);

  const Vector& theta() const noexcept { return theta_; }
  std::size_t dim() const noexcept { return theta_.size(); }
  /// Number of updates absorbed so far.
  std::size_t observations() const noexcept { return observations_; }

 private:
  double forgetting_;
  Vector theta_;
  Matrix covariance_;
  std::size_t observations_ = 0;
};

/// Convenience scalar-gain estimator for p(t+1) - p(t) = k * sum(dF):
/// tracks k with RLS and exposes a clamped blend against a prior.
class GainEstimator {
 public:
  /// @param prior_gain  offline model gain (the starting estimate)
  /// @param min_ratio / max_ratio  clamp on estimate / prior
  GainEstimator(double prior_gain, double min_ratio = 0.3,
                double max_ratio = 3.0, double forgetting = 0.98);

  /// Observe one control period: aggregate frequency move and the measured
  /// power change it produced. Tiny moves carry no information and are
  /// skipped (they would only inject noise).
  void observe(double delta_freq_sum, double delta_power_w);

  /// Current best gain: the prior until enough observations arrived, then
  /// the clamped RLS estimate.
  double gain() const;

  std::size_t observations() const noexcept { return rls_.observations(); }

 private:
  double prior_;
  double min_ratio_;
  double max_ratio_;
  RecursiveLeastSquares rls_;
};

}  // namespace sprintcon::control
