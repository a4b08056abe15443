// Synchronous fixed-step simulation driver.
#pragma once

#include "sim/clock.hpp"
#include "sim/recorder.hpp"

namespace sprintcon::sim {

/// A fixed-step clock, the trace recorder and one tick bound at
/// construction.
///
/// The tick is a non-owning (object, function) pair supplied by the owner
/// of the simulated entities (scenario::Rig binds Rig::step); the owner
/// must outlive every step_once().
class Simulation {
 public:
  /// One whole tick of `owner`: its stages, clock().advance() and
  /// recorder().sample().
  using TickFn = void (*)(void* owner);

  /// @param dt_s   tick length (seconds)
  /// @param owner  the object `tick` advances (non-null)
  /// @param tick   the function step_once() runs on `owner` (non-null)
  Simulation(double dt_s, void* owner, TickFn tick);

  SimClock& clock() noexcept { return clock_; }
  const SimClock& clock() const noexcept { return clock_; }
  TraceRecorder& recorder() noexcept { return recorder_; }
  const TraceRecorder& recorder() const noexcept { return recorder_; }

  /// Advance exactly one tick: run the bound tick. Hot path
  /// (SPRINTCON_HOT): no direct heap allocation or dynamic_cast.
  void step_once();

  /// Run until clock.now_s() >= t_end_s.
  void run_until(double t_end_s);

 private:
  SimClock clock_;
  TraceRecorder recorder_;
  void* tick_owner_;
  TickFn tick_;
};

}  // namespace sprintcon::sim
