// Classic power capping — the no-sprinting reference point.
//
// Before computational sprinting, power-constrained racks were managed by
// capping (Lefurgy et al. [8], which the paper builds on): a feedback loop
// uniformly scales every core's frequency so the total power stays below
// the breaker's *rated* capacity. No overload, no UPS discharge, no
// workload classes — maximum safety, minimum performance. Running it on
// the evaluation rig quantifies the premise of the whole sprinting line
// of work: how much capacity the rated feed leaves on the table during a
// burst.
#pragma once

#include "control/pid.hpp"
#include "core/config.hpp"
#include "power/power_path.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"

namespace sprintcon::baselines {

/// Uniform-DVFS power capping to the CB rated capacity.
class PowerCapController {
 public:
  /// @param config shares the SprintConfig for the CB rating / periods
  /// @param rack   controlled rack (outlives the controller)
  /// @param path   power infrastructure (outlives the controller)
  PowerCapController(const core::SprintConfig& config, server::Rack& rack,
                     power::PowerPath& path);

  void step(const sim::SimClock& clock);

  /// The cap (the breaker's rated capacity).
  double cap_w() const noexcept { return config_.cb_rated_w; }
  /// Uniform normalized frequency currently applied.
  double uniform_freq() const noexcept { return freq_; }

 private:
  core::SprintConfig config_;
  server::Rack& rack_;
  power::PowerPath& path_;
  control::PiController pi_;
  double freq_;
};

}  // namespace sprintcon::baselines
