// Frequency-scaling progress model (after CoScale, Deng et al. MICRO'12).
//
// The power load allocator needs to predict how DVFS affects batch job
// completion time (Section IV-B of the paper cites [12] for this). We use
// the standard two-component decomposition: execution time splits into a
// CPU-bound part that scales inversely with core frequency and a
// memory/IO-bound part that does not,
//
//     T(f) = W * ( mu / f + (1 - mu) ),       f = normalized frequency
//
// where mu in [0, 1] is the compute-boundedness measured at peak frequency
// and W is the job's total work expressed as seconds-at-peak-frequency.
// This also yields the per-watt speedup analysis behind Figure 1.
#pragma once

#include "common/validation.hpp"

namespace sprintcon::workload {

/// Rate and deadline math for one job characterized by compute-boundedness.
class ProgressModel {
 public:
  /// @param compute_fraction mu in [0, 1]; 1 = perfectly CPU-bound.
  explicit ProgressModel(double compute_fraction);

  double compute_fraction() const noexcept { return mu_; }

  /// Progress rate at normalized frequency f (rate(1) == 1).
  /// Units: work-seconds completed per wall second. Inline: batch cores
  /// call it every tick (DESIGN.md §7.5).
  double rate(double freq) const {
    SPRINTCON_EXPECTS(freq > 0.0, "frequency must be positive");
    return 1.0 / (mu_ / freq + (1.0 - mu_));
  }

  /// Frequency needed to complete `work` work-seconds within `time_s`
  /// seconds; clamped into [freq_min, freq_max]. Returns freq_max when the
  /// deadline is infeasible even at peak.
  double frequency_for_deadline(double work, double time_s, double freq_min,
                                double freq_max) const;

 private:
  double mu_;
};

}  // namespace sprintcon::workload
