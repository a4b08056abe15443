// FaultInjector: executes a FaultPlan against one rig, deterministically.
//
// The rig steps the injector between the rack and the controller, and
// its post_tick() stage after the controller. Each tick step()
//   1. records the true rack power (the meter-history buffer that delay
//      faults replay);
//   2. activates/clears every spec whose window boundary was crossed,
//      applying physical faults directly to the power path (capacity
//      fade, discharge-circuit gain, breaker trip-threshold derate,
//      utility-feed loss) and emitting a kFaultInjected/kFaultCleared
//      obs event for each edge;
//   3. pre-draws this tick's stochastic decisions (meter noise sample,
//      control-drop coin) from its own seeded Rng so that the hooks the
//      controller pulls (`meter_power_w`, `control_dropped`) are pure
//      functions of per-tick state.
// After the controller has stepped, `post_tick()` applies DVFS actuator
// faults by overwriting the frequencies the controller just wrote —
// exactly equivalent to the hardware ignoring or lagging the write,
// because the rack only realizes frequencies at the next tick.
//
// Determinism: all randomness comes from the explicit seed, drawn in
// fixed (tick, spec) order; identical (plan, seed, rig) => bit-identical
// traces (asserted by tests/fault_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/sink.hpp"
#include "power/power_path.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"

namespace sprintcon::fault {

class FaultInjector {
 public:
  /// @param plan validated fault schedule
  /// @param seed injector RNG seed (independent of the workload seeds)
  /// @param rack faulted rack (outlives the injector)
  /// @param path faulted power infrastructure (outlives the injector)
  FaultInjector(FaultPlan plan, std::uint64_t seed, server::Rack& rack,
                power::PowerPath& path);

  /// Pre-controller stage (see file comment). Step order matters: the Rig
  /// steps the injector after the rack and before the controller.
  void step(const sim::SimClock& clock);

  /// Post-controller stage: DVFS stuck/lag overwrites. The Rig runs it
  /// right after the controller, so the overwrite lands before the
  /// recorder samples the tick and the trace shows the *realized*
  /// frequencies, not the controller's overridden writes.
  void post_tick(const sim::SimClock& clock);

  // --- hooks the controller pulls (valid for the current tick) ------------
  /// Measured rack power after active sensing faults (dropout, delay,
  /// noise, spikes — applied in plan order; never negative).
  double meter_power_w(double raw_w) const;
  /// True when an active control-plane fault eats this controller tick.
  bool control_dropped() const noexcept { return control_dropped_; }

  // --- observability ------------------------------------------------------
  /// Attach a sink; activation/clear edges are then emitted as events and
  /// counted under "fault.activations".
  void set_obs(obs::ObsSink* sink);
  const FaultPlan& plan() const noexcept { return plan_; }
  /// Currently active specs (the rig's fault_active channel).
  std::size_t active_count() const noexcept;
  /// Activation edges seen so far.
  std::uint64_t activations() const noexcept { return activations_; }

 private:
  struct SpecState {
    bool active = false;
    double hold_w = 0.0;       ///< meter_dropout: frozen reading
    double noise_draw = 0.0;   ///< meter_noise: this tick's sample
    bool spike_now = false;    ///< meter_spike: fires this tick
    std::uint64_t ticks_active = 0;
    std::vector<double> freqs;  ///< dvfs_stuck snapshot / dvfs_lag state
  };

  void activate(std::size_t i, const sim::SimClock& clock);
  void clear(std::size_t i, const sim::SimClock& clock);
  std::vector<double> snapshot_freqs() const;

  FaultPlan plan_;
  Rng rng_;
  server::Rack& rack_;
  power::PowerPath& path_;
  std::vector<SpecState> states_;
  std::vector<double> meter_history_;  ///< true reading per tick
  double dt_s_ = 1.0;                  ///< tick length (for delay faults)
  bool control_dropped_ = false;
  std::uint64_t activations_ = 0;
  obs::ObsSink* obs_ = nullptr;
};

}  // namespace sprintcon::fault
