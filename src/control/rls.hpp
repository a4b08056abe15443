// Scalar recursive least squares with exponential forgetting, as an
// online plant-gain estimator.
//
// The server power controller can estimate the true aggregate power gain
// dP/df from the (delta-frequency, delta-power) pairs it observes every
// control period, instead of trusting the offline linear model. The model
// p(t+1) - p(t) = k * sum(dF) has one parameter, so the estimate theta and
// its covariance P are scalars.
#pragma once

#include <cstddef>

namespace sprintcon::control {

/// Tracks k with RLS and exposes a clamped estimate against a prior.
class GainEstimator {
 public:
  /// @param prior_gain  offline model gain (the starting estimate)
  /// @param min_ratio / max_ratio  clamp on estimate / prior
  /// @param forgetting  lambda in (0, 1]; smaller forgets faster
  GainEstimator(double prior_gain, double min_ratio = 0.3,
                double max_ratio = 3.0, double forgetting = 0.98);

  /// Observe one control period: aggregate frequency move and the measured
  /// power change it produced. Tiny moves carry no information and are
  /// skipped (they would only inject noise).
  void observe(double delta_freq_sum, double delta_power_w);

  /// Current best gain: the prior until enough observations arrived, then
  /// the clamped RLS estimate.
  double gain() const;

  std::size_t observations() const noexcept { return observations_; }

 private:
  double prior_;
  double min_ratio_;
  double max_ratio_;
  double forgetting_;
  double theta_ = 0.0;
  double covariance_ = 1e4;  ///< initial scale: large = uninformative
  std::size_t observations_ = 0;
};

}  // namespace sprintcon::control
