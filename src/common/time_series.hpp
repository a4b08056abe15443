// Uniformly-sampled time series with summary statistics.
//
// The simulation engine records every monitored channel (CB power, UPS
// discharge, per-class frequencies, ...) as a TimeSeries; the metrics and
// bench layers reduce them into the numbers the paper reports (averages,
// peaks, integrals such as discharged watt-hours).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sprintcon {

/// A named, uniformly sampled sequence of doubles.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// @param name      channel name (used in CSV headers / reports)
  /// @param dt_s      sampling interval in seconds (> 0)
  /// @param start_s   timestamp of the first sample
  TimeSeries(std::string name, double dt_s, double start_s = 0.0);

  const std::string& name() const noexcept { return name_; }
  double dt_s() const noexcept { return dt_s_; }
  double start_s() const noexcept { return start_s_; }

  void push(double value) { values_.push_back(value); }
  /// Pre-size the backing storage (e.g. for a known run horizon) so the
  /// per-tick push never reallocates.
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double operator[](std::size_t i) const { return values_[i]; }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Timestamp of sample i.
  double time_at(std::size_t i) const noexcept {
    return start_s_ + static_cast<double>(i) * dt_s_;
  }

  /// Value at (or just before) an absolute time; clamps to the ends.
  double sample_at(double t_s) const;

  // --- reductions -------------------------------------------------------
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  /// Time integral (value * dt summed), e.g. watts -> joules.
  double integral() const;
  /// Mean over a [t0, t1) time window (clamped to the series extent).
  double mean_between(double t0_s, double t1_s) const;
  /// First time the series meets `pred`-style threshold crossing upward;
  /// returns a negative value if it never crosses.
  double first_time_above(double threshold) const;

 private:
  std::string name_;
  double dt_s_ = 1.0;
  double start_s_ = 0.0;
  std::vector<double> values_;
};

}  // namespace sprintcon
