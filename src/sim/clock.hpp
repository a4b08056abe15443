// Fixed-step simulation clock.
//
// The whole evaluation runs on a synchronous fixed-step loop: every
// stage of the rig tick advances by dt, and controllers with longer
// periods divide the tick counter (see SimClock::every). A fixed step
// keeps the feedback loops exactly periodic, matching how the paper's
// control periods are defined.
#pragma once

#include <cstdint>

namespace sprintcon::sim {

/// Monotonic fixed-step clock. Time is seconds since simulation start.
class SimClock {
 public:
  explicit SimClock(double dt_s);

  double dt_s() const noexcept { return dt_s_; }
  double now_s() const noexcept { return now_s_; }
  std::uint64_t tick() const noexcept { return tick_; }

  /// Advance by one step.
  void advance() noexcept {
    ++tick_;
    now_s_ = static_cast<double>(tick_) * dt_s_;
  }

  /// True once per `period_s` of simulated time (with the first firing at
  /// t = period). Periods are rounded to whole ticks, minimum one tick.
  bool every(double period_s) const noexcept;

 private:
  double dt_s_;
  double now_s_ = 0.0;
  std::uint64_t tick_ = 0;
};

}  // namespace sprintcon::sim
