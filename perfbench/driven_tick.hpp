// Driving a rig's tick from outside the library, one layer at a time.
//
// Simulation::step_once() steps every component in registration order,
// advances the clock, samples the recorder, then runs the post-tick
// hooks. For a SprintCon rig without a fault plan, health, recovery or
// observability the components are exactly [rack, controller] and there
// are no hooks, so the benchmark can replay the tick through public calls
// and time each one:
//
//   rack().step -> sprintcon()->step -> clock().advance() -> recorder().sample()
//
// The replay must reproduce Rig::run()'s channels bit for bit; the traced
// run checks that it does (channels_identical) before it reports a layer.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/rig.hpp"

namespace perfbench {

namespace scenario = sprintcon::scenario;

/// Wall time of each layer of the replayed ticks, in seconds. Stamps are
/// chained (one clock read between layers), so the three layers partition
/// the timed part of each tick; loop_s is the whole replay from outside.
struct LayerTimes {
  std::uint64_t ticks = 0;
  double rack_s = 0.0;
  double controller_s = 0.0;
  double recorder_s = 0.0;  ///< clock advance + recorder sample
  double loop_s = 0.0;

  LayerTimes& operator+=(const LayerTimes& o) noexcept;
  /// The same figures with the clock reads the replay adds taken out:
  /// each layer interval holds one read, each tick three.
  LayerTimes without_clock_reads(double read_s) const noexcept;
};

/// Cost of one steady_clock read, in seconds (median of a few batches).
double clock_read_s();

/// `cfg` reduced to what the replay can reproduce: its fault plan,
/// health/recovery hooks and observability sink are dropped (they add
/// components and hooks that are not reachable from outside a Rig).
scenario::RigConfig drivable(scenario::RigConfig cfg);

/// Replay `rig` to the end of its run. `sample = false` skips the
/// recorder, which the bit-identity guard must catch.
LayerTimes drive_ticks(scenario::Rig& rig, bool sample = true);

/// Run `rig` to its end through Simulation::step_once(), appending each
/// tick's wall time in µs to `tick_us`.
void time_step_once(scenario::Rig& rig, std::vector<double>& tick_us);

}  // namespace perfbench
