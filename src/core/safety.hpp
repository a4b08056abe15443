// Sprint safety state machine (Section IV-C of the paper).
//
// During a sprint SprintCon monitors the circuit breaker and the energy
// storage:
//  * CB close to tripping  -> stop overloading; the UPS takes over the
//    excess load (kCbProtect). The flag re-arms when the breaker cools.
//  * UPS running out       -> P_cb becomes the budget for ALL workloads;
//    workloads bid for power (kUpsConserve). Sticky — the battery will not
//    refill mid-sprint.
//  * both                  -> end the sprint (kEnded, sticky).
#pragma once

#include "obs/sink.hpp"
#include "power/energy_store.hpp"
#include "power/circuit_breaker.hpp"

namespace sprintcon::core {

/// Thermal-stress fraction at which the monitor stops overloading. The
/// scheduled 150 s window ends at ~88% stress, so 0.92 is a backstop that
/// only fires when something (e.g. UPS saturation) pushes the CB beyond
/// its plan.
inline constexpr double kNearTripMargin = 0.92;
/// Battery SOC at which the monitor enters conservation mode.
inline constexpr double kUpsReserveFraction = 0.1;

/// Operating mode of the sprint.
enum class SprintState {
  kSprinting,   ///< normal controlled sprinting
  kCbProtect,   ///< breaker near trip: no overloading
  kUpsConserve, ///< battery low: cap everything to P_cb, bid for power
  kEnded,       ///< both failed: sprint over
};

const char* to_string(SprintState state) noexcept;

/// Watches the breaker and battery; derives the current SprintState.
class SafetyMonitor {
 public:
  /// Evaluate the monitors; call once per tick. `now_s` only stamps the
  /// emitted transition events (ignored without a sink).
  SprintState update(const power::CircuitBreaker& breaker,
                     const power::EnergyStore& battery, double now_s = 0.0);

  SprintState state() const noexcept { return state_; }
  bool cb_protect() const noexcept { return cb_protect_; }
  bool ups_conserve() const noexcept { return ups_conserve_; }

  /// Attach an observability sink (nullptr detaches). Every state
  /// transition is then emitted exactly once as a kSprintStateChange
  /// event carrying the cause and the breaker/battery readings.
  void set_obs(obs::ObsSink* sink);

 private:
  bool cb_protect_ = false;
  bool ups_conserve_ = false;
  SprintState state_ = SprintState::kSprinting;
  obs::ObsSink* obs_ = nullptr;
  obs::Counter* transitions_ = nullptr;
};

}  // namespace sprintcon::core
