// SprintCon: the top-level controllable-sprinting mechanism (Figure 4).
//
// The rig's policy stage (stepped after the rack and the fault injector):
// it wires the power load allocator, the MPC server power controller, the
// UPS power controller, and the safety monitor to a rack and its power
// path. Each tick it:
//   1. reads the rack's power monitor and the safety state;
//   2. resolves the current CB target P_cb (overload schedule + safety
//      overrides) and batch budget P_batch;
//   3. runs the server power controller at its period (batch DVFS) and the
//      UPS power controller at its period (discharge command);
//   4. resolves the physical power flows through the breaker/UPS, and
//      converts any unserved power into a rack outage.
//
// Degraded modes (Section IV-C): when the breaker is near tripping the
// overload stops and the UPS absorbs the excess; when the battery is low
// every workload is capped to P_cb and classes bid for power; when both
// happen the sprint ends.
#pragma once

#include <cstdint>

#include "core/allocator.hpp"
#include "core/bidding.hpp"
#include "core/config.hpp"
#include "core/safety.hpp"
#include "core/server_controller.hpp"
#include "core/ups_controller.hpp"
#include "power/power_path.hpp"
#include "server/rack.hpp"
#include "sim/clock.hpp"

namespace sprintcon::fault {
class FaultInjector;
}

namespace sprintcon::core {

/// Degraded operating modes the recovery engine can command. They stack
/// on top of (never replace) the safety state machine: safety overrides
/// still apply in every mode.
enum class ControlMode : std::uint8_t {
  kNormal,           ///< full SprintCon (MPC + overload schedule)
  kPidFallback,      ///< batch control degraded from MPC to a PI loop
  kConservativeCap,  ///< all workloads bid under rated P_cb (no overload)
  kQuarantined,      ///< sprint ended, batch pinned at the floor, UPS idle
};

/// The complete SprintCon controller for one rack.
class SprintConController {
 public:
  /// @param config config (validated)
  /// @param rack   controlled rack (outlives the controller)
  /// @param path   power infrastructure (outlives the controller)
  SprintConController(const SprintConfig& config, server::Rack& rack,
                      power::PowerPath& path);

  void step(const sim::SimClock& clock);

  // --- observability (recorder channels / tests) --------------------------
  const SprintConfig& config() const noexcept { return config_; }
  SprintState state() const noexcept { return safety_.state(); }
  /// Effective CB target after safety overrides.
  double p_cb_effective_w() const noexcept { return p_cb_eff_w_; }
  /// Current batch power budget handed to the MPC.
  double p_batch_w() const noexcept { return p_batch_eff_w_; }
  /// Last UPS discharge command.
  double ups_command_w() const noexcept { return ups_command_w_; }
  /// True once unserved demand has shut the rack down.
  bool outage() const noexcept { return outage_; }

  /// Commanded degraded mode (recovery ladder). Entering kPidFallback
  /// swaps the batch controller; kConservativeCap caps P_cb at rated and
  /// routes every control period through the bidding fallback;
  /// kQuarantined additionally pins batch at the DVFS floor and zeroes
  /// the UPS command. Leaving a mode restores normal operation on the
  /// next period.
  void set_control_mode(ControlMode mode);
  ControlMode control_mode() const noexcept { return mode_; }

  PowerLoadAllocator& allocator() noexcept { return allocator_; }
  ServerPowerController& server_controller() noexcept { return server_ctrl_; }

  /// Attach an observability sink; forwarded to the safety monitor, the
  /// allocator and the MPC. The controller itself then emits UPS setpoint
  /// changes, battery SOC threshold crossings and the outage event.
  void set_obs(obs::ObsSink* sink);

  /// Attach a fault injector (nullptr detaches). The controller then
  /// reads its rack power through the injector's meter transform and
  /// honors dropped control ticks — physics always advances on the true
  /// demand; only the *decisions* see the faulted measurements.
  void set_fault(const fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }

 private:
  /// Resolve the physical power flows for this tick (true demand, the
  /// standing UPS/recharge commands) and convert unserved power into an
  /// outage. The one piece of step() that runs even on dropped ticks.
  void resolve_flows(double p_total_w, double now_s, double dt_s);

  /// Budget split in the bidding (degraded) modes. Sets
  /// `interactive_moved` when the cap (or the pin at peak) moved an
  /// interactive core's frequency.
  double bid_batch_budget_w(double budget_w, double p_inter_w, double now_s,
                            bool& interactive_moved);

  SprintConfig config_;
  server::Rack& rack_;
  power::PowerPath& path_;
  PowerLoadAllocator allocator_;
  ServerPowerController server_ctrl_;
  SafetyMonitor safety_;

  ControlMode mode_ = ControlMode::kNormal;
  double p_cb_eff_w_ = 0.0;
  double p_batch_eff_w_ = 0.0;
  double ups_command_w_ = 0.0;
  double recharge_w_ = 0.0;  ///< standing recharge command (held on drops)
  bool outage_ = false;
  bool started_ = false;

  const fault::FaultInjector* fault_ = nullptr;
  obs::ObsSink* obs_ = nullptr;
  /// Metric handles, each looked up (registering its metric) and cached on
  /// the first tick that uses it; set_obs() clears them.
  struct ObsHandles {
    obs::Gauge* p_total = nullptr;
    obs::Gauge* p_meas = nullptr;
    obs::Gauge* meter_residual = nullptr;
    obs::Counter* ups_shortfall_j = nullptr;
  } met_;
  double prev_soc_ = -1.0;  ///< SOC at the previous tick (< 0 = unseen)
};

}  // namespace sprintcon::core
