#include "common/time_series.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/validation.hpp"

namespace sprintcon {

TimeSeries::TimeSeries(std::string name, double dt_s, double start_s)
    : name_(std::move(name)), dt_s_(dt_s), start_s_(start_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "sampling interval must be positive");
}

double TimeSeries::sample_at(double t_s) const {
  SPRINTCON_EXPECTS(!values_.empty(), "cannot sample an empty series");
  const double idx = (t_s - start_s_) / dt_s_;
  if (idx <= 0.0) return values_.front();
  const auto i = static_cast<std::size_t>(idx);
  if (i >= values_.size()) return values_.back();
  return values_[i];
}

double TimeSeries::mean() const {
  SPRINTCON_EXPECTS(!values_.empty(), "mean of empty series");
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double TimeSeries::min() const {
  SPRINTCON_EXPECTS(!values_.empty(), "min of empty series");
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::max() const {
  SPRINTCON_EXPECTS(!values_.empty(), "max of empty series");
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::stddev() const {
  SPRINTCON_EXPECTS(!values_.empty(), "stddev of empty series");
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double TimeSeries::integral() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0) * dt_s_;
}

double TimeSeries::mean_between(double t0_s, double t1_s) const {
  SPRINTCON_EXPECTS(t1_s > t0_s, "window must have positive length");
  SPRINTCON_EXPECTS(!values_.empty(), "mean_between of empty series");
  const auto clamp_index = [&](double t) {
    const double idx = (t - start_s_) / dt_s_;
    return static_cast<std::size_t>(
        std::clamp(idx, 0.0, static_cast<double>(values_.size())));
  };
  const std::size_t i0 = clamp_index(t0_s);
  const std::size_t i1 = std::max(clamp_index(t1_s), i0 + 1);
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = i0; i < i1 && i < values_.size(); ++i, ++n) acc += values_[i];
  SPRINTCON_ENSURES(n > 0, "window does not overlap the series");
  return acc / static_cast<double>(n);
}

double TimeSeries::first_time_above(double threshold) const {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] > threshold) return time_at(i);
  }
  return -1.0;
}

}  // namespace sprintcon
