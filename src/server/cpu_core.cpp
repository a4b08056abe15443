#include "server/cpu_core.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::server {

namespace {
void check_bounds(double freq_min, double freq_max) {
  SPRINTCON_EXPECTS(freq_min > 0.0 && freq_min <= freq_max && freq_max <= 1.0,
                    "core frequency bounds must satisfy 0 < min <= max <= 1");
}
}  // namespace

CpuCore::CpuCore(double freq_min, double freq_max,
                 std::unique_ptr<workload::UtilizationSource> source)
    : role_(CoreRole::kInteractive),
      freq_min_(freq_min),
      freq_max_(freq_max),
      freq_(freq_max),  // interactive cores sprint at peak by default
      source_(std::move(source)) {
  check_bounds(freq_min, freq_max);
  SPRINTCON_EXPECTS(source_ != nullptr, "interactive core needs a source");
}

CpuCore::CpuCore(double freq_min, double freq_max,
                 workload::InteractiveTraceGenerator generator)
    : CpuCore(freq_min, freq_max,
              std::make_unique<workload::InteractiveTraceGenerator>(
                  std::move(generator))) {}

CpuCore::CpuCore(double freq_min, double freq_max,
                 std::unique_ptr<workload::BatchJob> job)
    : role_(CoreRole::kBatch),
      freq_min_(freq_min),
      freq_max_(freq_max),
      freq_(freq_min),  // batch cores start throttled until controlled
      job_(std::move(job)) {
  check_bounds(freq_min, freq_max);
  SPRINTCON_EXPECTS(job_ != nullptr, "batch core needs a job");
}

void CpuCore::set_freq(double freq) noexcept {
  freq_ = std::clamp(freq, freq_min_, freq_max_);
}

void CpuCore::step(double dt_s, double now_s) {
  if (role_ == CoreRole::kInteractive) {
    utilization_ = source_->step(dt_s, freq_);
    counters_ = {};
  } else {
    counters_ = job_->advance(dt_s, freq_, now_s);
    utilization_ = counters_.busy_fraction;
  }
}

}  // namespace sprintcon::server
