#include "core/config.hpp"

#include "common/validation.hpp"

namespace sprintcon::core {

namespace {
// Bursts shorter than a minute sprint without a CB target (Section IV-A).
constexpr double kShortBurstS = 60.0;
}  // namespace

OverloadPolicy SprintConfig::overload_policy() const noexcept {
  if (burst_duration_s < kShortBurstS) return OverloadPolicy::kUnconstrained;
  if (burst_duration_s < long_burst_s) return OverloadPolicy::kContinuous;
  return OverloadPolicy::kPeriodic;
}

void SprintConfig::validate() const {
  SPRINTCON_EXPECTS(cb_rated_w > 0.0, "CB rated power must be positive");
  SPRINTCON_EXPECTS(cb_overload_degree >= 1.0, "overload degree must be >= 1");
  SPRINTCON_EXPECTS(cb_overload_duration_s > 0.0, "overload duration > 0");
  SPRINTCON_EXPECTS(cb_recovery_duration_s > 0.0, "recovery duration > 0");
  SPRINTCON_EXPECTS(burst_duration_s > 0.0, "burst duration > 0");
  SPRINTCON_EXPECTS(kShortBurstS <= long_burst_s,
                    "burst thresholds must be ordered");
  SPRINTCON_EXPECTS(allocator_period_s > 0.0, "allocator period > 0");
  SPRINTCON_EXPECTS(mpc.control_period_s > 0.0, "control period > 0");
  SPRINTCON_EXPECTS(allocator_period_s >= mpc.control_period_s,
                    "the allocator must be slower than the MPC loop");
  SPRINTCON_EXPECTS(recharge_power_w >= 0.0,
                    "recharge power must be non-negative");
}

SprintConfig paper_config() {
  SprintConfig cfg;  // defaults are the paper's numbers
  cfg.validate();
  return cfg;
}

}  // namespace sprintcon::core
