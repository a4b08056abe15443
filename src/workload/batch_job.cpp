#include "workload/batch_job.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::workload {

BatchJob::BatchJob(const BatchProfile& profile, double deadline_s,
                   double work_s, CompletionMode mode, Rng rng)
    : profile_(profile),
      model_(profile.compute_fraction),
      mode_(mode),
      work_total_s_(work_s > 0.0 ? work_s : profile.nominal_work_s),
      deadline_s_(deadline_s),
      rng_(rng) {
  SPRINTCON_EXPECTS(deadline_s > 0.0, "deadline must be positive");
  SPRINTCON_EXPECTS(work_total_s_ > 0.0, "work must be positive");
}

double BatchJob::remaining_work_s() const noexcept {
  return std::max(0.0, (1.0 - progress_) * work_total_s_);
}

double BatchJob::penalty_weight(double now_s) const {
  if (completed_ && mode_ == CompletionMode::kRunOnce) return 0.0;
  if (completions_ > 0) {
    // The deadline was satisfied by the first pass; later passes of a
    // repeating trace are background throughput work with neutral urgency.
    return 0.5;
  }
  const double remaining_progress = 1.0 - progress_;
  const double elapsed = std::max(now_s - start_time_s_, 0.0);
  const double left = deadline_s_ - now_s;
  if (left <= 0.0) {
    // Deadline already passed: maximum urgency, bounded to keep the QP
    // well conditioned.
    return 100.0;
  }
  const double window = elapsed + left;
  if (window <= 0.0) return 100.0;
  const double normalized_left = left / window;
  return std::min(remaining_progress / std::max(normalized_left, 1e-3), 100.0);
}

}  // namespace sprintcon::workload
