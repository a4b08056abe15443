#include "server/cpu_core.hpp"

#include "common/validation.hpp"

namespace sprintcon::server {

CpuCore::CpuCore(double freq_min, double freq_max, CoreWorkload workload)
    : freq_min_(freq_min),
      freq_max_(freq_max),
      freq_(workload.index() == kBatchIndex ? freq_min : freq_max),
      workload_(std::move(workload)) {
  check_bounds();
}

void CpuCore::check_bounds() const {
  SPRINTCON_EXPECTS(
      freq_min_ > 0.0 && freq_min_ <= freq_max_ && freq_max_ <= 1.0,
      "core frequency bounds must satisfy 0 < min <= max <= 1");
}

}  // namespace sprintcon::server
