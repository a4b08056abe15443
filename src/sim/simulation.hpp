// Synchronous fixed-step simulation driver.
#pragma once

#include "sim/clock.hpp"
#include "sim/recorder.hpp"

namespace sprintcon::obs {
class Histogram;
class WindowedHistogram;
}  // namespace sprintcon::obs

namespace sprintcon::sim {

/// A fixed-step clock, the trace recorder and one bound tick.
///
/// The tick is a non-owning (object, function) pair that the owner of the
/// simulated entities installs (scenario::Rig binds Rig::step); the owner
/// must outlive every step_once(). Unbound, a tick only advances the clock
/// and samples the recorder.
class Simulation {
 public:
  /// One whole tick of `owner`: its stages, clock().advance() and
  /// recorder().sample().
  using TickFn = void (*)(void* owner);

  explicit Simulation(double dt_s);

  SimClock& clock() noexcept { return clock_; }
  const SimClock& clock() const noexcept { return clock_; }
  TraceRecorder& recorder() noexcept { return recorder_; }
  const TraceRecorder& recorder() const noexcept { return recorder_; }

  /// Install the tick step_once() runs, replacing any earlier one.
  void bind_tick(void* owner, TickFn tick);

  /// Attach wall-time tick profiling: every step_once() records its
  /// duration (µs) into `hist` and, if given, the sliding-window twin.
  /// Null detaches; detached ticks cost one branch.
  void set_tick_obs(obs::Histogram* hist,
                    obs::WindowedHistogram* windowed = nullptr) noexcept {
    tick_hist_ = hist;
    tick_window_ = windowed;
  }

  /// Advance exactly one tick: the bound tick under the tick timer. Hot
  /// path (SPRINTCON_HOT): no direct heap allocation or dynamic_cast.
  void step_once();

  /// Run until clock.now_s() >= t_end_s.
  void run_until(double t_end_s);

 private:
  SimClock clock_;
  TraceRecorder recorder_;
  void* tick_owner_ = nullptr;
  TickFn tick_ = nullptr;
  obs::Histogram* tick_hist_ = nullptr;
  obs::WindowedHistogram* tick_window_ = nullptr;
};

}  // namespace sprintcon::sim
