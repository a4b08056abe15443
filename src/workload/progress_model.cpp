#include "workload/progress_model.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::workload {

ProgressModel::ProgressModel(double compute_fraction) : mu_(compute_fraction) {
  SPRINTCON_EXPECTS(compute_fraction >= 0.0 && compute_fraction <= 1.0,
                    "compute fraction must be in [0, 1]");
}

double ProgressModel::frequency_for_deadline(double work, double time_s,
                                             double freq_min,
                                             double freq_max) const {
  SPRINTCON_EXPECTS(freq_min > 0.0 && freq_min <= freq_max,
                    "invalid frequency bounds");
  SPRINTCON_EXPECTS(work >= 0.0, "work must be non-negative");
  if (work == 0.0) return freq_min;
  if (time_s <= 0.0) return freq_max;
  // Solve work * (mu/f + 1 - mu) = time_s for f:
  //   f = mu / (time_s/work - (1 - mu))
  const double denom = time_s / work - (1.0 - mu_);
  if (denom <= 0.0) return freq_max;  // infeasible even at infinite frequency
  if (mu_ == 0.0) return freq_min;    // frequency-insensitive job
  const double f = mu_ / denom;
  return std::clamp(f, freq_min, freq_max);
}

}  // namespace sprintcon::workload
